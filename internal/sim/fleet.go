// Fleet campaigns: the Monte-Carlo harness over the multi-reader
// discrete-event scheduler (internal/fleet), with the same per-run seed
// derivation and the same ordered-merge determinism contract as the static
// and dynamic paths (see docs/parallelism.md and docs/fleet.md).
package sim

import (
	"github.com/ancrfid/ancrfid/internal/fleet"
	"github.com/ancrfid/ancrfid/internal/obs"
	"github.com/ancrfid/ancrfid/internal/protocol"
	"github.com/ancrfid/ancrfid/internal/runpool"
	"github.com/ancrfid/ancrfid/internal/stats"
)

// FleetConfig describes a multi-reader campaign: the campaign knobs of
// Config plus the fleet topology. Config.Tags is the initial population
// per reader; Config.Workers parallelises across Monte-Carlo runs while
// Fleet.Workers parallelises the zone shards inside each run — the two
// compose, and every combination is bit-identical.
type FleetConfig struct {
	// Config carries the campaign knobs (Runs, Seed, Workers, channel,
	// timing, faults, tracing). Its environment fields are copied into the
	// fleet config of every run; reader 0 of a one-reader one-zone fleet
	// reproduces the plain RunOnce run exactly.
	Config
	// Fleet is the topology: reader and zone counts, coordination policy,
	// link budget, migration workload, per-reader overrides. Its Seed,
	// Tags, channel/timing/fault and Tracer fields are overwritten from
	// Config per run.
	Fleet fleet.Config
}

// fleetConfig assembles the per-run fleet configuration from the campaign
// knobs.
func (c FleetConfig) fleetConfig() fleet.Config {
	fc := c.Fleet
	fc.Seed = c.Seed
	fc.Tags = c.Tags
	fc.Lambda = c.Lambda
	fc.Timing = c.Timing
	fc.TxModel = c.TxModel
	fc.MaxSlots = c.MaxSlots
	fc.PAckLoss = c.PAckLoss
	fc.NewChannel = c.NewChannel
	fc.Faults = c.Faults
	fc.Tracer = c.tracer()
	return fc
}

// FleetResult aggregates a fleet campaign.
type FleetResult struct {
	Protocol string
	Policy   string
	// Runs holds one fleet report per run, in run order.
	Runs []fleet.Report

	// Identified, DepartedUnread and ActiveUnread summarise the fleet-wide
	// per-run population accounting.
	Identified     stats.Summary
	DepartedUnread stats.Summary
	ActiveUnread   stats.Summary
	// Migrations, ReaderCollisions and BlockedSlots summarise the fleet
	// scheduler's per-run coordination counters.
	Migrations       stats.Summary
	ReaderCollisions stats.Summary
	BlockedSlots     stats.Summary
	// Throughput summarises fleet-wide identified tags per second of fleet
	// wall-clock time.
	Throughput stats.Summary
}

// fleetRunMetrics sums the per-reader protocol metrics of one fleet run
// into the campaign-level Metrics handed to Progress: fleet-wide slot and
// identification counts, with OnAir being total reader air time.
func fleetRunMetrics(rep *fleet.Report) protocol.Metrics {
	var m protocol.Metrics
	for _, rr := range rep.Readers {
		m.Tags += rr.Metrics.Tags
		m.EmptySlots += rr.Metrics.EmptySlots
		m.SingletonSlots += rr.Metrics.SingletonSlots
		m.CollisionSlots += rr.Metrics.CollisionSlots
		m.DirectIDs += rr.Metrics.DirectIDs
		m.ResolvedIDs += rr.Metrics.ResolvedIDs
		m.Frames += rr.Metrics.Frames
		m.TagTransmissions += rr.Metrics.TagTransmissions
		m.OnAir += rr.Metrics.OnAir
	}
	return m
}

// RunFleet executes the fleet campaign for one session protocol, on the
// static campaign's worker pool and merge discipline (see Run): reports
// land in run order, traces replay in run order, and the error returned
// is the lowest-indexed failing run's, with the zero result.
func RunFleet(p protocol.SessionProtocol, cfg FleetConfig) (FleetResult, error) {
	cfg.Config = cfg.Config.withDefaults()
	run := func(i int, tr obs.Tracer) (fleet.Report, error) {
		c := cfg
		c.Tracer = tr
		return RunFleetOnce(p, c, i)
	}
	runs, err := campaign(p, cfg.Config, func() runpool.Func[fleet.Report] { return run }, fleetRunMetrics)
	if err != nil {
		return FleetResult{}, err
	}
	res := FleetResult{Protocol: p.Name(), Runs: runs}
	res.summarize()
	return res, nil
}

// RunFleetOnce executes a single fleet run with the deterministic
// generators derived from (cfg.Seed, run, reader index); see fleet.Run.
func RunFleetOnce(p protocol.SessionProtocol, cfg FleetConfig, run int) (fleet.Report, error) {
	cfg.Config = cfg.Config.withDefaults()
	return fleet.Run(p, cfg.fleetConfig(), run)
}

func (r *FleetResult) summarize() {
	n := len(r.Runs)
	var (
		idf = make([]float64, 0, n)
		dep = make([]float64, 0, n)
		act = make([]float64, 0, n)
		mig = make([]float64, 0, n)
		col = make([]float64, 0, n)
		blk = make([]float64, 0, n)
		tp  = make([]float64, 0, n)
	)
	for i := range r.Runs {
		rep := &r.Runs[i]
		if r.Policy == "" {
			r.Policy = rep.Policy
		}
		idf = append(idf, float64(rep.Identified))
		dep = append(dep, float64(rep.DepartedUnread))
		act = append(act, float64(rep.ActiveUnread))
		mig = append(mig, float64(rep.Migrations))
		col = append(col, float64(rep.ReaderCollisions))
		blk = append(blk, float64(rep.BlockedSlots))
		if rep.Duration > 0 {
			tp = append(tp, float64(rep.Identified)/rep.Duration.Seconds())
		}
	}
	r.Identified = stats.Summarize(idf)
	r.DepartedUnread = stats.Summarize(dep)
	r.ActiveUnread = stats.Summarize(act)
	r.Migrations = stats.Summarize(mig)
	r.ReaderCollisions = stats.Summarize(col)
	r.BlockedSlots = stats.Summarize(blk)
	r.Throughput = stats.Summarize(tp)
}
