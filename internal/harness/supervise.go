package harness

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"aap/internal/algo/sssp"
	"aap/internal/core"
	"aap/internal/partition"
	"aap/internal/supervise"
	"aap/internal/transport"
)

// The self-healing section of -exp chaos re-execs aapbench itself as a
// supervised worker host: the parent owns the victim through a
// Supervisor, chaos SIGKILLs the host from the round hook, and the
// supervision ladder must respawn + rejoin it while budget lasts and
// fail back locally past it — bit-identical output either way.
const (
	superviseChildAddrEnv    = "AAP_SUPERVISE_CHILD_ADDR"
	superviseChildWorkerEnv  = "AAP_SUPERVISE_CHILD_WORKER"
	superviseChildWorkersEnv = "AAP_SUPERVISE_CHILD_WORKERS"
	superviseChildIncEnv     = "AAP_SUPERVISE_CHILD_INC"
)

// superviseVictim is the worker whose host the chaos section owns.
const superviseVictim = 1

// SuperviseChildMain turns the current process into a supervised worker
// host when AAP_SUPERVISE_CHILD_ADDR is set, and returns immediately
// otherwise. cmd/aapbench calls it before flag parsing, next to
// DurableChildMain.
func SuperviseChildMain() {
	addr := os.Getenv(superviseChildAddrEnv)
	if addr == "" {
		return
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "aapbench supervised host:", err)
		os.Exit(1)
	}
	worker, err := strconv.Atoi(os.Getenv(superviseChildWorkerEnv))
	if err != nil {
		fail(err)
	}
	workers, err := strconv.Atoi(os.Getenv(superviseChildWorkersEnv))
	if err != nil {
		fail(err)
	}
	inc, err := strconv.ParseUint(os.Getenv(superviseChildIncEnv), 10, 64)
	if err != nil {
		fail(err)
	}
	ds := FriendsterSim(Scale())
	p, err := partition.Build(ds.Graph, workers, partition.Hash{})
	if err != nil {
		fail(err)
	}
	topts := core.TransportOptions{
		HeartbeatEvery: 10 * time.Millisecond,
		SuspectAfter:   80 * time.Millisecond,
		// The host must outlive the parent's recovery quiesce without
		// declaring the parent dead itself.
		DeadAfter:   2 * time.Second,
		Incarnation: inc,
	}
	if err := core.ServeWorker(p, sssp.Job(ds.Source), worker, addr, topts); err != nil {
		fail(err)
	}
	os.Exit(0)
}

// supervisedChaosRun runs one supervised job with the victim host
// SIGKILLed maxKills times (at most once per incarnation, from the
// round hook), returning the result and how many kills actually fired.
func supervisedChaosRun(p *partition.Partitioned, job core.Job[float64], workers, maxKills int, pol supervise.Policy) (*core.Result[float64], int, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	spec := supervise.Spec{
		Worker: superviseVictim,
		Start: func(addr string, inc uint64) (*exec.Cmd, error) {
			cmd := exec.Command(exe)
			cmd.Env = append(os.Environ(),
				superviseChildAddrEnv+"="+addr,
				superviseChildWorkerEnv+"="+strconv.Itoa(superviseVictim),
				superviseChildWorkersEnv+"="+strconv.Itoa(workers),
				superviseChildIncEnv+"="+strconv.FormatUint(inc, 10))
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				return nil, err
			}
			return cmd, nil
		},
	}
	sup := supervise.New(pol, spec)
	defer sup.Stop()

	topts := core.TransportOptions{
		HeartbeatEvery: 10 * time.Millisecond,
		SuspectAfter:   80 * time.Millisecond,
		DeadAfter:      250 * time.Millisecond,
		RemoteWorkers:  []int{superviseVictim},
		OnListen:       sup.OnListen,
		Supervisor:     sup,
	}
	var (
		mu      sync.Mutex
		kills   int
		shotInc uint64
	)
	res, err := core.Run(p, job, core.Options{
		Mode:       core.AAP,
		Deadline:   time.Minute,
		Checkpoint: core.CheckpointOptions{EveryRounds: 1},
		Transport:  &topts,
		RoundHook: func(worker int, round int32) {
			if worker != superviseVictim || round < 2 {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if kills >= maxKills {
				return
			}
			// Once per incarnation: the round counter rewinds on
			// recovery, the incarnation number only moves forward.
			if inc := sup.Incarnation(superviseVictim); inc > shotInc {
				shotInc = inc
				kills++
				_ = sup.Kill(superviseVictim)
			}
		},
	})
	mu.Lock()
	fired := kills
	mu.Unlock()
	return res, fired, err
}

// supervision appends the self-healing section to the chaos report: one
// run with every kill inside the restart budget (all respawned and
// rejoined, zero failbacks) and one with a kill past it (budget
// exhausted, victim failed back to a local Program). Both must land
// bit-identical to the fault-free baseline.
func supervision(b *strings.Builder, p *partition.Partitioned, job core.Job[float64], base []float64, workers, maxRestarts int, backoffBase time.Duration) error {
	if workers <= superviseVictim {
		fmt.Fprintf(b, "\nself-healing: skipped (needs > %d workers)\n", superviseVictim)
		return nil
	}
	if maxRestarts < 1 {
		maxRestarts = 1
	}
	pol := supervise.Policy{
		MaxRestarts: maxRestarts,
		Backoff:     transport.Backoff{Base: backoffBase, Seed: 42},
	}
	fmt.Fprintf(b, "\nself-healing: supervised worker host (loopback TCP, SIGKILL victim=%d, max-restarts=%d):\n",
		superviseVictim, maxRestarts)
	fmt.Fprintf(b, "%-22s %10s %7s %9s %12s %10s %14s\n",
		"run", "time(s)", "kills", "restarts", "rejoin(ms)", "failbacks", "dropped-seals")

	row := func(name string, maxKills int, wantRestarts int64, wantFailback bool) error {
		res, kills, err := supervisedChaosRun(p, job, workers, maxKills, pol)
		if err != nil {
			return fmt.Errorf("self-healing: %s: %w", name, err)
		}
		if kills != maxKills {
			return fmt.Errorf("self-healing: %s: run finished after %d of %d kills", name, kills, maxKills)
		}
		if err := sameDistances(base, res.Values); err != nil {
			return fmt.Errorf("self-healing: %s: supervised run diverged from fault-free run: %w", name, err)
		}
		st := res.Stats
		if st.Restarts != wantRestarts {
			return fmt.Errorf("self-healing: %s: %d restarts, want %d", name, st.Restarts, wantRestarts)
		}
		if wantFailback && st.Failbacks < 1 {
			return fmt.Errorf("self-healing: %s: budget exhausted but no failback recorded", name)
		}
		if !wantFailback && st.Failbacks != 0 {
			return fmt.Errorf("self-healing: %s: unexpected failback (%d)", name, st.Failbacks)
		}
		fmt.Fprintf(b, "%-22s %10.3f %7d %9d %12.3f %10d %14d\n",
			name, st.Seconds, kills, st.Restarts, st.RejoinSeconds*1e3, st.Failbacks, st.DroppedSeals)
		return nil
	}

	if err := row(fmt.Sprintf("respawn x%d", maxRestarts), maxRestarts, int64(maxRestarts), false); err != nil {
		return err
	}
	if err := row("budget exhausted", maxRestarts+1, int64(maxRestarts), true); err != nil {
		return err
	}
	b.WriteString("all supervised runs bit-identical to the fault-free baseline\n")
	return nil
}
