package harness

import (
	"fmt"
	"math"
	"strings"
	"time"

	"aap/internal/algo/sssp"
	"aap/internal/core"
	"aap/internal/partition"
)

// ChaosSeeds is the fixed fault-schedule axis of -exp chaos; the CI
// smoke step runs exactly these three seeds so a regression in the
// recovery path is reproducible from the log alone.
var ChaosSeeds = []int64{1, 7, 42}

// Chaos measures the fault-tolerance plane on a wall-clock engine run:
//
//   - checkpoint overhead — the same SSSP run with snapshots every
//     round and every 4 rounds against the plain run, reported as
//     ns/epoch sealed and bytes/snapshot;
//
//   - recovery — for each seed, a run that loses a worker at its first
//     incremental round, restores from the last sealed snapshot, and
//     must land bit-identical to the fault-free distances (the
//     determinism contract for the idempotent min fold); recovery wall
//     time comes from the engine's quiesce-to-resume clock.
//
//   - transport overhead — the same run with every designated batch and
//     coordinator token codec-encoded onto the loopback TCP plane,
//     reporting real serialized wire bytes against the in-proc model's
//     accounted bytes, plus a kill+recovery run over the wire.
//
//   - durability — a victim child process with every sealed epoch teed
//     to disk is SIGKILLed mid-run and resumed from its records, intact
//     and with the newest record torn or bit-flipped (see durability).
//
//   - self-healing — a supervised worker host is SIGKILLed inside and
//     then past its restart budget; the supervisor must respawn+rejoin
//     within budget and fail back locally beyond it (see supervision).
//
// cmd/aapbench exposes it as -exp chaos; maxRestarts and restartBackoff
// mirror the -max-restarts/-restart-backoff flags.
func Chaos(workers int, seeds []int64, maxRestarts int, restartBackoff time.Duration) (string, error) {
	ds := FriendsterSim(Scale())
	p, err := partition.Build(ds.Graph, workers, partition.Hash{})
	if err != nil {
		return "", err
	}
	job := sssp.Job(ds.Source)
	plain := core.Options{Mode: core.AAP, Deadline: time.Minute}

	base, err := core.Run(p, job, plain)
	if err != nil {
		return "", err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "fault tolerance: sssp on %s (n=%d, m=%d), %d workers\n",
		ds.Name, ds.Graph.NumVertices(), ds.Graph.NumEdges(), workers)
	fmt.Fprintf(&b, "%-22s %10s %8s %12s %14s %12s\n",
		"run", "time(s)", "epochs", "ns/epoch", "bytes/snap", "recoveries")
	fmt.Fprintf(&b, "%-22s %10.3f %8d %12s %14s %12d\n",
		"baseline", base.Stats.Seconds, 0, "-", "-", 0)

	for _, every := range []int32{1, 4} {
		opts := plain
		opts.Checkpoint = core.CheckpointOptions{EveryRounds: every}
		res, err := core.Run(p, job, opts)
		if err != nil {
			return "", err
		}
		if err := sameDistances(base.Values, res.Values); err != nil {
			return "", fmt.Errorf("checkpointed run (every=%d) diverged: %w", every, err)
		}
		st := res.Stats
		nsEpoch, bytesSnap := "-", "-"
		if st.Checkpoints > 0 {
			nsEpoch = fmt.Sprintf("%.0f", (st.Seconds-base.Stats.Seconds)*1e9/float64(st.Checkpoints))
			bytesSnap = fmt.Sprintf("%d", st.CheckpointBytes/st.Checkpoints)
		}
		fmt.Fprintf(&b, "%-22s %10.3f %8d %12s %14s %12d\n",
			fmt.Sprintf("checkpoint every=%d", every), st.Seconds, st.Checkpoints, nsEpoch, bytesSnap, st.Recoveries)
	}

	b.WriteString("\nseeded kill + recovery (checkpoint every round, kill at first incremental round):\n")
	fmt.Fprintf(&b, "%-22s %10s %8s %12s %14s %12s\n",
		"run", "time(s)", "epochs", "victim", "recovery(ms)", "recoveries")
	for _, seed := range seeds {
		victim := int(seed) % workers
		opts := plain
		opts.Checkpoint = core.CheckpointOptions{EveryRounds: 1}
		opts.Faults = &core.Faults{
			Seed: seed,
			Kill: &core.KillSpec{Worker: victim, Round: 1},
		}
		res, err := core.Run(p, job, opts)
		if err != nil {
			return "", err
		}
		if err := sameDistances(base.Values, res.Values); err != nil {
			return "", fmt.Errorf("seed %d: recovered run diverged from fault-free run: %w", seed, err)
		}
		st := res.Stats
		fmt.Fprintf(&b, "%-22s %10.3f %8d %12d %14.3f %12d\n",
			fmt.Sprintf("seed=%d", seed), st.Seconds, st.Checkpoints, victim, st.RecoverySeconds*1e3, st.Recoveries)
		if st.Recoveries < 1 {
			return "", fmt.Errorf("seed %d: kill scheduled for worker %d but no recovery ran", seed, victim)
		}
	}
	b.WriteString("\nall recovered runs bit-identical to the fault-free baseline\n")

	b.WriteString("\ntransport plane: loopback TCP, codec-encoded batches + wire coordinator:\n")
	fmt.Fprintf(&b, "%-22s %10s %12s %12s %9s %8s %12s\n",
		"run", "time(s)", "wire-out(B)", "wire-in(B)", "retries", "hb-t/o", "recoveries")
	tcp := plain
	tcp.Transport = &core.TransportOptions{TCP: true}
	wire, err := core.Run(p, job, tcp)
	if err != nil {
		return "", err
	}
	if err := sameDistances(base.Values, wire.Values); err != nil {
		return "", fmt.Errorf("tcp run diverged from in-proc run: %w", err)
	}
	st := wire.Stats
	fmt.Fprintf(&b, "%-22s %10.3f %12d %12d %9d %8d %12d\n",
		"tcp", st.Seconds, st.WireBytesOut, st.WireBytesIn, st.Retries, st.HeartbeatTimeouts, st.Recoveries)

	tcpKill := tcp
	tcpKill.Checkpoint = core.CheckpointOptions{EveryRounds: 1}
	tcpKill.Faults = &core.Faults{
		Seed: seeds[len(seeds)-1],
		Kill: &core.KillSpec{Worker: int(seeds[len(seeds)-1]) % workers, Round: 1},
	}
	wk, err := core.Run(p, job, tcpKill)
	if err != nil {
		return "", err
	}
	if err := sameDistances(base.Values, wk.Values); err != nil {
		return "", fmt.Errorf("tcp kill+recovery run diverged from fault-free run: %w", err)
	}
	if wk.Stats.Recoveries < 1 {
		return "", fmt.Errorf("tcp run: kill scheduled but no recovery ran")
	}
	st = wk.Stats
	fmt.Fprintf(&b, "%-22s %10.3f %12d %12d %9d %8d %12d\n",
		fmt.Sprintf("tcp kill seed=%d", tcpKill.Faults.Seed),
		st.Seconds, st.WireBytesOut, st.WireBytesIn, st.Retries, st.HeartbeatTimeouts, st.Recoveries)
	fmt.Fprintf(&b, "tcp overhead %.2fx over in-proc; wire bytes vs accounted model bytes %.2fx\n",
		wire.Stats.Seconds/base.Stats.Seconds,
		float64(wire.Stats.WireBytesOut)/float64(max(wire.Stats.TotalBytes, 1)))
	b.WriteString("tcp runs bit-identical to the in-proc fault-free baseline\n")

	if err := durability(&b, p, job, base.Values, workers); err != nil {
		return "", err
	}
	if err := supervision(&b, p, job, base.Values, workers, maxRestarts, restartBackoff); err != nil {
		return "", err
	}
	return b.String(), nil
}

// sameDistances compares two assembled SSSP value vectors bitwise,
// treating +Inf as equal to +Inf.
func sameDistances(want, got []float64) error {
	if len(want) != len(got) {
		return fmt.Errorf("length %d vs %d", len(got), len(want))
	}
	for v := range want {
		if want[v] != got[v] && !(math.IsInf(want[v], 1) && math.IsInf(got[v], 1)) {
			return fmt.Errorf("vertex %d: %v vs %v", v, got[v], want[v])
		}
	}
	return nil
}
