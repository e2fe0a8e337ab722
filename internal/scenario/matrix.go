package scenario

import (
	"context"
	"fmt"
	"sync"
	"time"

	"comb/internal/obs"
	"comb/internal/runner"
	"comb/internal/spec"
	"comb/internal/transport"
)

// CellTimeout bounds one cell's simulation wall-clock time.  Pack
// workloads are sized to finish in milliseconds, so a minute means the
// cell is not going to finish at all — e.g. a fault profile that pushes
// a transport into receive livelock, where interrupt-priority bursts
// eat the CPU faster than the stream drains and simulated time never
// reaches the benchmark's end.  The timeout turns such a cell into a
// matrix/complete violation with a replay line instead of hanging the
// oracle.
const CellTimeout = 60 * time.Second

// Cell is one point of a pack's result matrix: a workload on a
// transport, faulted or clean.  Faulted packs expand each (workload,
// system) pair into a faulted cell and its clean twin so relations can
// compare the degraded run against the undegraded one on otherwise
// identical axes.
type Cell struct {
	// Pack and Workload name the manifest coordinates.
	Pack, Workload string
	// System is the transport under test.
	System string
	// Faulted says the pack's fault profile applies to this cell.
	Faulted bool
	// Spec is the normalized measurement this cell ran.
	Spec spec.Spec
	// Key is the cell's frozen cache key (spec.KeyOf).
	Key string
	// Result is the typed result envelope; nil when Err is set.
	Result *runner.Result
	// Hash is the canonical sha256 of the result envelope's JSON, the
	// quantity the replay relation compares against a cold re-run.
	Hash string
	// Err is the run's failure, invariant violations included.
	Err error
}

// Replay renders the one-command reproduction line for the cell: its
// full normalized spec as an inline document (spec.ReplayLine) plus the
// frozen spec key.
func (c *Cell) Replay() string {
	return fmt.Sprintf("%s (spec key %s)", spec.ReplayLine(c.Spec), c.Key)
}

// Matrix is one pack's expanded, executed result grid.
type Matrix struct {
	Pack  *Pack
	Cells []*Cell

	// rerun executes one cell's spec through a fresh engine, bypassing
	// every cache tier of the matrix run; the replay relation uses it to
	// prove cold runs reproduce cached hashes.
	rerun func(ctx context.Context, s spec.Spec) (*runner.Result, error)
}

// Cell returns the (workload, system, faulted) cell, or nil.
func (m *Matrix) Cell(workload, system string, faulted bool) *Cell {
	for _, c := range m.Cells {
		if c.Workload == workload && c.System == system && c.Faulted == faulted {
			return c
		}
	}
	return nil
}

// CleanTwin returns the clean counterpart of a faulted cell, or nil.
func (m *Matrix) CleanTwin(c *Cell) *Cell {
	if !c.Faulted {
		return c
	}
	return m.Cell(c.Workload, c.System, false)
}

// Rerun executes one cell's normalized spec cold: a fresh single-use
// engine, no disk tier, no shared memo.
func (m *Matrix) Rerun(ctx context.Context, c *Cell) (*runner.Result, error) {
	return m.rerun(ctx, c.Spec)
}

// Options configures a pack expansion run.
type Options struct {
	// Engine executes the cells; nil builds a fresh in-memory engine.
	// Sharing one engine across packs shares its memo and dry-run
	// calibration, so identical cells (every faulted pack's clean twins
	// of a common workload, say) simulate once.
	Engine *runner.Engine
	// Workers bounds concurrent simulations when Engine is nil; zero
	// means GOMAXPROCS.
	Workers int
	// Systems overrides the transports to expand over; nil means every
	// registered transport (transport.Names()).
	Systems []string
}

// Expand builds the pack's cell grid without running it: every workload
// × every system, a clean cell always, plus a faulted cell when the
// pack carries a fault profile.  Cells come back normalized and keyed.
func Expand(p *Pack, systems []string) ([]*Cell, error) {
	if len(systems) == 0 {
		systems = transport.Names()
	}
	fs, err := p.FaultSpec()
	if err != nil {
		return nil, err
	}
	var cells []*Cell
	for _, wl := range p.Workloads {
		for _, sys := range systems {
			base := wl.Spec
			base.System = sys
			if base.Seed == 0 {
				base.Seed = p.Seed
			}
			variants := []bool{false}
			if fs != nil {
				variants = append(variants, true)
			}
			for _, faulted := range variants {
				s := base
				if faulted {
					f := *fs
					s.Faults = &f
				} else {
					s.Faults = nil
				}
				n, meth, err := s.Normalized()
				if err != nil {
					return nil, fmt.Errorf("scenario: pack %q workload %q on %s: %w", p.Name, wl.Name, sys, err)
				}
				cells = append(cells, &Cell{
					Pack:     p.Name,
					Workload: wl.Name,
					System:   sys,
					Faulted:  faulted,
					Spec:     n,
					Key:      spec.KeyOf(n, meth),
				})
			}
		}
	}
	return cells, nil
}

// Run expands the pack and executes every cell.  Cell failures do not
// abort the matrix — they land in Cell.Err, where the completeness
// relation turns each into a violation with a replay line — but a
// cancelled context does.
func Run(ctx context.Context, p *Pack, opts Options) (*Matrix, error) {
	cells, err := Expand(p, opts.Systems)
	if err != nil {
		return nil, err
	}
	eng := opts.Engine
	if eng == nil {
		eng = runner.New(runner.Config{Workers: opts.Workers, Timeout: CellTimeout})
	}

	var wg sync.WaitGroup
	sem := make(chan struct{}, eng.Workers())
	for _, c := range cells {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(c *Cell) {
			defer wg.Done()
			defer func() { <-sem }()
			runCell(ctx, eng, c)
		}(c)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &Matrix{
		Pack:  p,
		Cells: cells,
		rerun: func(ctx context.Context, s spec.Spec) (*runner.Result, error) {
			cold := runner.New(runner.Config{Workers: 1, Timeout: CellTimeout})
			return cold.Run(ctx, s)
		},
	}, nil
}

// runCell executes one cell and stamps its result hash.
func runCell(ctx context.Context, eng *runner.Engine, c *Cell) {
	res, err := eng.Run(ctx, c.Spec)
	if err != nil {
		c.Err = err
		return
	}
	c.Result = res
	h, err := HashEnvelope(res)
	if err != nil {
		c.Err = fmt.Errorf("scenario: hashing %s: %w", c.Key, err)
		return
	}
	c.Hash = h
}

// HashEnvelope hashes a result envelope's canonical JSON; two runs of
// one spec are equal exactly when their envelope hashes are.
func HashEnvelope(r *runner.Result) (string, error) {
	return obs.HashResult(r)
}
