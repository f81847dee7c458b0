package harness

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"aap/internal/algo/sssp"
	"aap/internal/checkpoint"
	"aap/internal/core"
	"aap/internal/partition"
)

// The durability half of -exp chaos re-execs aapbench itself as a
// victim process: the child runs the same SSSP job with every sealed
// epoch teed to a shared directory, the parent SIGKILLs it mid-run and
// resumes from whatever the disk holds — including after deliberately
// tearing or bit-flipping the newest record.
const (
	durableChildDirEnv     = "AAP_DURABLE_CHILD_DIR"
	durableChildWorkersEnv = "AAP_DURABLE_CHILD_WORKERS"
)

// DurableChildMain turns the current process into the durability
// victim when AAP_DURABLE_CHILD_DIR is set, and returns immediately
// otherwise. cmd/aapbench calls it before flag parsing so the child
// needs no arguments — only the two environment markers.
func DurableChildMain() {
	dir := os.Getenv(durableChildDirEnv)
	if dir == "" {
		return
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "aapbench durable child:", err)
		os.Exit(1)
	}
	workers, err := strconv.Atoi(os.Getenv(durableChildWorkersEnv))
	if err != nil {
		fail(err)
	}
	ds := FriendsterSim(Scale())
	p, err := partition.Build(ds.Graph, workers, partition.Hash{})
	if err != nil {
		fail(err)
	}
	opts := core.Options{
		Mode:       core.AAP,
		Deadline:   time.Minute,
		Checkpoint: core.CheckpointOptions{EveryRounds: 1, Dir: dir, Retain: 8},
		// Stretch the run so the parent's SIGKILL lands mid-execution
		// rather than after completion.
		Latency: 2 * time.Millisecond,
	}
	if _, err := core.Run(p, sssp.Job(ds.Source), opts); err != nil {
		fail(err)
	}
	os.Exit(0)
}

// durability appends the crash-restart section to the chaos report:
// spawn the victim, wait for at least two sealed epochs on disk,
// SIGKILL it, then resume three ways — from the intact directory, from
// a copy with the newest record truncated, and from a copy with the
// newest record bit-flipped. The corrupted resumes must fall back to an
// older epoch; all three must land bit-identical to base.
func durability(b *strings.Builder, p *partition.Partitioned, job core.Job[float64], base []float64, workers int) error {
	dir, err := os.MkdirTemp("", "aap-durable-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		durableChildDirEnv+"="+dir,
		durableChildWorkersEnv+"="+strconv.Itoa(workers))
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return err
	}

	d, err := checkpoint.OpenDurable(dir, checkpoint.DurableOptions{})
	if err != nil {
		return err
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if e, _, err := d.NewestSealed(); err == nil && e >= 2 {
			break
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			return fmt.Errorf("durability: victim sealed fewer than 2 epochs in 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	_ = cmd.Process.Kill()
	_ = cmd.Wait()

	// Corruption copies are taken before the first resume — resuming
	// appends fresh epochs to the live directory.
	truncDir, err := copyCheckpointDir(dir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(truncDir)
	flipDir, err := copyCheckpointDir(dir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(flipDir)

	fmt.Fprintf(b, "\ndurability: crash-consistent records, whole-process SIGKILL + restart:\n")
	fmt.Fprintf(b, "%-22s %10s %11s %10s %12s %8s\n",
		"run", "time(s)", "from-epoch", "read(B)", "resume(ms)", "fsyncs")

	row := func(name, rdir string, wantBelow int32) error {
		opts := core.Options{
			Mode:       core.AAP,
			Deadline:   time.Minute,
			Checkpoint: core.CheckpointOptions{EveryRounds: 1, Dir: rdir, Retain: 8},
		}
		res, err := core.Resume(p, job, opts)
		if err != nil {
			return fmt.Errorf("durability: %s: %w", name, err)
		}
		if err := sameDistances(base, res.Values); err != nil {
			return fmt.Errorf("durability: %s: resumed run diverged from fault-free run: %w", name, err)
		}
		st := res.Stats
		if st.ResumeEpoch < 1 {
			return fmt.Errorf("durability: %s: resumed without a sealed epoch", name)
		}
		if wantBelow > 0 && st.ResumeEpoch >= wantBelow {
			return fmt.Errorf("durability: %s: resumed from epoch %d, want fallback below corrupted %d",
				name, st.ResumeEpoch, wantBelow)
		}
		fmt.Fprintf(b, "%-22s %10.3f %11d %10d %12.3f %8d\n",
			name, st.Seconds, st.ResumeEpoch, st.ResumeBytes, st.ResumeSeconds*1e3, st.FsyncCount)
		return nil
	}

	if err := row("sigkill+resume", dir, 0); err != nil {
		return err
	}
	newest, err := corruptNewestRecord(truncDir, true)
	if err != nil {
		return err
	}
	if err := row("truncated-tail", truncDir, newest); err != nil {
		return err
	}
	newest, err = corruptNewestRecord(flipDir, false)
	if err != nil {
		return err
	}
	if err := row("bitflipped-tail", flipDir, newest); err != nil {
		return err
	}
	b.WriteString("all resumed runs bit-identical to the fault-free baseline\n")
	return nil
}

func copyCheckpointDir(src string) (string, error) {
	dst, err := os.MkdirTemp("", "aap-durable-copy-")
	if err != nil {
		return "", err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return "", err
	}
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			return "", err
		}
	}
	return dst, nil
}

// corruptNewestRecord damages the newest record in dir — a torn tail
// (truncation) or a flipped payload byte — and returns its epoch so the
// caller can assert the resume fell back below it.
func corruptNewestRecord(dir string, truncate bool) (int32, error) {
	d, err := checkpoint.OpenDurable(dir, checkpoint.DurableOptions{})
	if err != nil {
		return 0, err
	}
	es := d.Epochs()
	if len(es) < 2 {
		return 0, fmt.Errorf("need >= 2 epochs on disk to corrupt one, have %v", es)
	}
	newest := es[len(es)-1]
	p := filepath.Join(dir, checkpoint.RecordFile(newest))
	data, err := os.ReadFile(p)
	if err != nil {
		return 0, err
	}
	if truncate {
		data = data[:len(data)*2/3]
	} else {
		data[len(data)-5] ^= 0x20
	}
	return newest, os.WriteFile(p, data, 0o644)
}
