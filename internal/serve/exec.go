package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/sim"
	"repro/internal/stepsim"
	"repro/internal/workload"
)

// The sweep executor: runs a job's ladder one point at a time so progress
// can be checkpointed between points. Correctness of crash recovery rests
// on two properties the engines already guarantee:
//
//  1. every ladder point's ReplicaSet is a pure function of (scenario,
//     engine, code version) — replica streams derive from the point seed
//     alone and adaptive stopping is evaluated on complete replica
//     prefixes — so re-running a point in a fresh process reproduces it
//     bit-for-bit;
//  2. warm-start chains are Markov in the captured snapshots: point i
//     depends on earlier points only through point i−1's CRC-checked
//     EVTSNAP1/SLOTSNP1 snapshots, so persisting (results, snapshots) at
//     each point boundary makes the whole chain resumable.
//
// A job killed at any moment and resumed therefore yields a final result
// document byte-identical to an uninterrupted run's: completed points are
// replayed verbatim from the journal, re-run points reproduce their
// journaled bytes, and fresh points see exactly the state they would have
// seen. Faults-degraded scenarios reject warm-start at validation, so
// they always take the independent-points path, where whole-point restart
// is trivially exact.

// errDrained is the executor's interruption sentinel for a graceful
// worker drain: the current point was finished and checkpointed, the rest
// of the ladder was not started, and the job should be requeued intact.
var errDrained = errors.New("serve: worker draining")

// errCancelRequested is the interruption sentinel for a client cancel
// observed at a point boundary (the cancel marker); the job finishes
// canceled.
var errCancelRequested = errors.New("serve: cancel requested")

// resumeState is what a resumed execution starts from: the journaled
// completed-point documents and, for warm-start jobs, the chain
// snapshots of the last checkpointed point.
type resumeState struct {
	points    []json.RawMessage // completed prefix, verbatim journal bytes
	ckptPoint int               // index the snapshots were captured after
	snaps     [][]byte          // per-replica snapshot wire blobs
	haveCkpt  bool
}

// execHooks are the executor's side-effect points.
type execHooks struct {
	// point runs after ladder point i completes, with the point's
	// document and (for warm-start jobs) the end-of-point snapshot
	// blobs. rerun marks a point that was already journaled and was
	// re-executed only to rebuild chain state — its document is
	// bit-identical to the journaled one. A non-nil error aborts the
	// job.
	point func(i int, doc json.RawMessage, snaps [][]byte, rerun bool) error
	// interrupted is polled between points; returning errDrained or
	// errCancelRequested stops the ladder with that sentinel.
	interrupted func() error
}

// resultAssembly marshals to exactly the same bytes as ResultDoc — same
// fields, same order — but carries the points as raw messages so a
// resumed job embeds its journaled point documents verbatim.
type resultAssembly struct {
	Name    string            `json:"name"`
	Engine  string            `json:"engine"`
	Version string            `json:"version"`
	Key     string            `json:"key"`
	Points  []json.RawMessage `json:"points"`
}

// executeSweep runs (or resumes) one job and returns the final result
// document. The error is either a sentinel (errDrained,
// errCancelRequested), the job ctx's cancellation cause, or the first
// engine/validation error (deterministic, hence permanent).
func executeSweep(ctx context.Context, rec JobRecord, version string, simWorkers int, st resumeState, h execHooks) ([]byte, error) {
	sc, b, err := workload.ParseBind(rec.Scenario)
	if err != nil {
		return nil, err
	}
	n := len(b.Points)
	points := make([]json.RawMessage, n)
	copied := copy(points, st.points)

	// Pick the start point and decode warm-start chain state. Without
	// warm-start, points are independent: resume right after the
	// journaled prefix. With it, resume from the last checkpointed
	// snapshots, re-running any journaled points past them (crash landed
	// between the point append and the checkpoint write); if the chain
	// state is missing or damaged, restart the whole ladder — the
	// deterministic engines reproduce the journaled prefix exactly.
	start := copied
	var (
		prevEvt  []*sim.Snapshot
		prevSlot []*stepsim.Snapshot
	)
	warm := sc.WarmStart
	if warm && copied > 0 {
		start = 0
		if st.haveCkpt && st.ckptPoint < copied {
			ok := true
			switch rec.Engine {
			case EngineSlotted:
				prevSlot, ok = decodeSlotSnaps(st.snaps)
			default:
				prevEvt, ok = decodeEvtSnaps(st.snaps)
			}
			if ok {
				start = st.ckptPoint + 1
			} else {
				prevEvt, prevSlot = nil, nil
			}
		}
	}

	// runPoint executes ladder point i on the job's engine, threading the
	// warm-start chain through the enclosing prev* variables, and returns
	// the point document plus the encoded end-of-point snapshots.
	var runPoint func(i int) (PointDoc, [][]byte, error)
	switch rec.Engine {
	case EngineSlotted:
		cfgs, cfgErr := b.SlottedConfigs()
		if cfgErr != nil {
			return nil, cfgErr
		}
		opts := b.SlottedSweepOpts(simWorkers)
		runPoint = func(i int) (PointDoc, [][]byte, error) {
			rs, snaps, err := stepsim.RunCellAdaptive(ctx, cfgs[i], opts, prevSlot, warm)
			if err != nil {
				return PointDoc{}, nil, err
			}
			var blobs [][]byte
			if warm {
				prevSlot = snaps
				blobs, err = encodeSnaps(len(snaps), func(j int) ([]byte, error) {
					if snaps[j] == nil {
						return nil, errors.New("nil snapshot")
					}
					return snaps[j].MarshalBinary()
				})
				if err != nil {
					return PointDoc{}, nil, fmt.Errorf("serve: encoding checkpoint: %w", err)
				}
			}
			return pointDoc(i, b, rs.MeanDelay, rs.DelayCI, rs.MeanN, rs.ReplicasUsed), blobs, nil
		}
	default:
		opts := b.SweepOpts(simWorkers)
		runPoint = func(i int) (PointDoc, [][]byte, error) {
			rs, snaps, err := sim.RunCellAdaptive(ctx, b.Configs[i], opts, prevEvt, warm)
			if err != nil {
				return PointDoc{}, nil, err
			}
			var blobs [][]byte
			if warm {
				prevEvt = snaps
				blobs, err = encodeSnaps(len(snaps), func(j int) ([]byte, error) {
					if snaps[j] == nil {
						return nil, errors.New("nil snapshot")
					}
					return snaps[j].MarshalBinary()
				})
				if err != nil {
					return PointDoc{}, nil, fmt.Errorf("serve: encoding checkpoint: %w", err)
				}
			}
			return pointDoc(i, b, rs.MeanDelay, rs.DelayCI, rs.MeanN, rs.ReplicasUsed), blobs, nil
		}
	}

	for i := start; i < n; i++ {
		if h.interrupted != nil {
			if err := h.interrupted(); err != nil {
				return nil, err
			}
		}
		pd, blobs, err := runPoint(i)
		if cause := context.Cause(ctx); cause != nil {
			return nil, cause
		}
		if err != nil {
			return nil, err
		}
		raw, err := json.Marshal(pd)
		if err != nil {
			return nil, err
		}
		points[i] = raw
		if h.point != nil {
			if err := h.point(i, raw, blobs, i < copied); err != nil {
				return nil, err
			}
		}
	}
	return json.Marshal(resultAssembly{
		Name:    b.Scenario.Name,
		Engine:  rec.Engine,
		Version: version,
		Key:     rec.Key,
		Points:  points,
	})
}

func pointDoc(i int, b *workload.Bound, meanDelay, delayCI, meanN float64, reps int) PointDoc {
	return PointDoc{
		Index:     i,
		Load:      b.Points[i].Load,
		NodeRate:  b.Points[i].NodeRate,
		MeanDelay: meanDelay,
		DelayCI:   delayCI,
		MeanN:     meanN,
		Replicas:  reps,
	}
}

func encodeSnaps(n int, marshal func(j int) ([]byte, error)) ([][]byte, error) {
	blobs := make([][]byte, n)
	for j := range n {
		b, err := marshal(j)
		if err != nil {
			return nil, err
		}
		blobs[j] = b
	}
	return blobs, nil
}

func decodeSlotSnaps(blobs [][]byte) ([]*stepsim.Snapshot, bool) {
	snaps := make([]*stepsim.Snapshot, len(blobs))
	for j, b := range blobs {
		sn, err := stepsim.UnmarshalSnapshot(b)
		if err != nil {
			return nil, false
		}
		snaps[j] = sn
	}
	return snaps, true
}

func decodeEvtSnaps(blobs [][]byte) ([]*sim.Snapshot, bool) {
	snaps := make([]*sim.Snapshot, len(blobs))
	for j, b := range blobs {
		sn, err := sim.UnmarshalSnapshot(b)
		if err != nil {
			return nil, false
		}
		snaps[j] = sn
	}
	return snaps, true
}
