package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"probdedup"
	"probdedup/internal/dataset"
)

// The recovery suite measures the durable online engine's crash
// economics at scale: how long a checkpoint of n residents takes, how
// big the snapshot is, and — the headline — how long reopening the
// state directory takes when recovery must load that snapshot and
// replay a WAL tail of post-checkpoint arrivals. The recovered engine
// is verified to hold exactly the expected resident count before the
// measurement is reported.

// recoveryEntry is one measured state-directory size.
type recoveryEntry struct {
	Residents     int     `json:"residents"`
	TailOps       int     `json:"tail_ops"`
	TailTuples    int     `json:"tail_tuples"`
	SeedNs        int64   `json:"seed_ns"`
	CheckpointNs  int64   `json:"checkpoint_ns"`
	SnapshotBytes int64   `json:"snapshot_bytes"`
	WALBytes      int64   `json:"wal_bytes"`
	RecoverNs     int64   `json:"recover_ns"`
	RecoverSec    float64 `json:"recover_sec"`
	TuplesPerSec  float64 `json:"recovered_tuples_per_sec"`
}

// recoveryReport is the BENCH_recovery.json payload.
type recoveryReport struct {
	Suite   string          `json:"suite"`
	Seed    int64           `json:"seed"`
	Env     benchEnv        `json:"env"`
	Entries []recoveryEntry `json:"entries"`
}

// recoveryTailBatches is the number of post-checkpoint AddBatch WAL
// records replayed during recovery (each of scaleBatchSize tuples).
const recoveryTailBatches = 4

// runBenchRecoveryOnce seeds a durable detector with n residents,
// checkpoints, ingests a WAL tail, simulates a crash, and measures the
// reopen.
func runBenchRecoveryOnce(n int, seed int64) (recoveryEntry, error) {
	c := dataset.Skewed(n, recoveryTailBatches*scaleBatchSize, seed)
	opts, err := scaleOpts(c.Schema, 1, true)
	if err != nil {
		return recoveryEntry{}, err
	}
	// Group commit amortizes fsync across the seeding batches; the
	// snapshot cadence is manual (one explicit checkpoint).
	opts.Durability = probdedup.Durability{FsyncEvery: 16}

	dir, err := os.MkdirTemp("", "pdbench-recovery-")
	if err != nil {
		return recoveryEntry{}, err
	}
	defer os.RemoveAll(dir)

	det, err := probdedup.OpenDurable(dir, c.Schema, opts, nil)
	if err != nil {
		return recoveryEntry{}, err
	}
	start := time.Now() //pdlint:allow nowallclock -- benchmark stopwatch; measures the harness, not engine state
	for lo := 0; lo < len(c.Residents); lo += seedChunk {
		hi := lo + seedChunk
		if hi > len(c.Residents) {
			hi = len(c.Residents)
		}
		if err := det.AddBatch(c.Residents[lo:hi]); err != nil {
			return recoveryEntry{}, fmt.Errorf("seed: %w", err)
		}
	}
	seedNs := time.Since(start).Nanoseconds()

	start = time.Now() //pdlint:allow nowallclock -- benchmark stopwatch; measures the harness, not engine state
	if err := det.Checkpoint(); err != nil {
		return recoveryEntry{}, fmt.Errorf("checkpoint: %w", err)
	}
	checkpointNs := time.Since(start).Nanoseconds()

	for lo := 0; lo+scaleBatchSize <= len(c.Arrivals); lo += scaleBatchSize {
		if err := det.AddBatch(c.Arrivals[lo : lo+scaleBatchSize]); err != nil {
			return recoveryEntry{}, fmt.Errorf("tail: %w", err)
		}
	}
	// Crash: release the directory without checkpointing, leaving the
	// snapshot plus the WAL tail for recovery to reassemble.
	if err := det.Abort(); err != nil {
		return recoveryEntry{}, fmt.Errorf("abort: %w", err)
	}
	snapBytes, walBytes, err := stateDirSizes(dir)
	if err != nil {
		return recoveryEntry{}, err
	}

	start = time.Now() //pdlint:allow nowallclock -- benchmark stopwatch; measures the harness, not engine state
	det2, err := probdedup.OpenDurable(dir, c.Schema, opts, nil)
	if err != nil {
		return recoveryEntry{}, fmt.Errorf("recover: %w", err)
	}
	recoverNs := time.Since(start).Nanoseconds()
	defer det2.Abort()

	wantLen := len(c.Residents) + recoveryTailBatches*scaleBatchSize
	if got := det2.Len(); got != wantLen {
		return recoveryEntry{}, fmt.Errorf("recovered %d residents, want %d", got, wantLen)
	}
	return recoveryEntry{
		Residents:     n,
		TailOps:       recoveryTailBatches,
		TailTuples:    recoveryTailBatches * scaleBatchSize,
		SeedNs:        seedNs,
		CheckpointNs:  checkpointNs,
		SnapshotBytes: snapBytes,
		WALBytes:      walBytes,
		RecoverNs:     recoverNs,
		RecoverSec:    float64(recoverNs) / 1e9,
		TuplesPerSec:  float64(wantLen) / (float64(recoverNs) / 1e9),
	}, nil
}

// stateDirSizes sums the snapshot and WAL bytes in a state directory.
func stateDirSizes(dir string) (snap, wal int64, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			return 0, 0, err
		}
		switch filepath.Ext(e.Name()) {
		case ".snap":
			snap += fi.Size()
		case ".log":
			wal += fi.Size()
		}
	}
	return snap, wal, nil
}

// runBenchRecovery measures checkpoint and recovery cost for every
// requested resident count and writes BENCH_recovery.json.
func runBenchRecovery(path string, sizes []int, seed int64) error {
	report := recoveryReport{Suite: "recovery", Seed: seed, Env: captureEnv()}
	sort.Ints(sizes)
	for _, n := range sizes {
		entry, err := runBenchRecoveryOnce(n, seed)
		if err != nil {
			return fmt.Errorf("residents=%d: %w", n, err)
		}
		report.Entries = append(report.Entries, entry)
		fmt.Fprintf(os.Stderr, "pdbench: residents=%d snapshot=%dB wal=%dB checkpoint=%dms recover=%dms (%.0f tuples/s)\n",
			n, entry.SnapshotBytes, entry.WALBytes, entry.CheckpointNs/1e6, entry.RecoverNs/1e6, entry.TuplesPerSec)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
