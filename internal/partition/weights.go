package partition

import "math"

// WeightSummary describes the weights of a fragment's owned out-edges,
// the per-graph facts weighted kernels consult on every query: the mean
// weight and its coefficient of variation (a dispersion signal), and
// where the first weight that is not positive and finite sits.
type WeightSummary struct {
	// Mean and Disp are the mean weight and the coefficient of
	// variation. Unweighted and edgeless fragments report (1, 0).
	Mean, Disp float64

	// BadRow and BadIndex locate the first owned out-edge, in CSR order,
	// whose weight is zero, negative, NaN or +Inf: entry BadIndex of
	// G.OutWeights(BadRow). BadRow is -1 when every weight is positive
	// and finite.
	BadRow   int32
	BadIndex int
}

// Weights returns the fragment's weight summary. The scan runs on the
// first call only: the graph is immutable, so its result never changes
// and concurrent queries share it.
func (f *Fragment) Weights() WeightSummary {
	f.weightsOnce.Do(func() { f.weights = f.summarizeWeights() })
	return f.weights
}

func (f *Fragment) summarizeWeights() WeightSummary {
	ws := WeightSummary{Mean: 1, BadRow: -1}
	g := f.p.G
	if !g.Weighted() {
		return ws
	}
	var sum, sumSq float64
	var n int64
	for v := f.Lo; v < f.Hi; v++ {
		for i, w := range g.OutWeights(v) {
			if ws.BadRow < 0 && (!(w > 0) || math.IsInf(w, 1)) {
				ws.BadRow, ws.BadIndex = v, i
			}
			sum += w
			sumSq += w * w
			n++
		}
	}
	if n == 0 || !(sum > 0) {
		return ws
	}
	ws.Mean = sum / float64(n)
	variance := sumSq/float64(n) - ws.Mean*ws.Mean
	if variance < 0 {
		variance = 0
	}
	ws.Disp = math.Sqrt(variance) / ws.Mean
	return ws
}
