package load

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"
)

// SummarySchema is the schema tag of the Summary line; CI's p99 gate checks
// it before reading a field.
const SummarySchema = "slload/v5"

// Summary is the one-line machine-readable record of one load run — the
// unit cmd/slload prints and benchmarks/sweep.sh consolidates into TSV.
// Field names are the schema; CI's p99 gate and the sweep parser read them
// by name.
type Summary struct {
	// Schema identifies the document format (SummarySchema).
	Schema string `json:"schema"`
	// Mode is the load mode: "open" or "closed".
	Mode string `json:"mode"`
	// Distribution is the key distribution: uniform, hotkey, or zipfian.
	Distribution string `json:"distribution"`
	// Target names what was driven: "inproc", "self", or the base URL.
	Target string `json:"target"`
	// Kind and Op name the workload operation, e.g. counter/inc.
	Kind string `json:"kind"`
	// Op is the operation name within Kind.
	Op string `json:"op"`
	// Batch is the operations per call (1 = single-op requests).
	Batch int `json:"batch"`
	// Workers is the configured concurrency.
	Workers int `json:"workers"`
	// RateOpsS is the open-loop offered rate in ops/s (0 in closed mode).
	RateOpsS float64 `json:"rate_ops_s"`
	// Poisson reports exponential open-loop inter-arrival gaps.
	Poisson bool `json:"poisson,omitempty"`
	// Keys is the keyspace size.
	Keys int `json:"keys"`
	// Seed is the run's deterministic seed.
	Seed int64 `json:"seed"`
	// WarmupMs and MeasureMs are the phase lengths in milliseconds.
	WarmupMs int64 `json:"warmup_ms"`
	// MeasureMs is the measurement window in milliseconds.
	MeasureMs int64 `json:"measure_ms"`
	// Ops is how many operations the measurement window completed.
	Ops int64 `json:"ops"`
	// Calls is how many Op calls that took (Ops/Batch).
	Calls int64 `json:"calls"`
	// ErrorCount is how many measured calls failed.
	ErrorCount int64 `json:"error_count"`
	// Overflows is how many open-loop arrivals the bounded queue dropped.
	Overflows int64 `json:"overflows,omitempty"`
	// ThroughputOpsS is measured operations per second.
	ThroughputOpsS float64 `json:"throughput_ops_s"`
	// P50Ns, P95Ns, P99Ns, MaxNs are the latency quantiles in nanoseconds.
	P50Ns int64 `json:"p50_ns"`
	// P95Ns is the 95th-percentile latency in nanoseconds.
	P95Ns int64 `json:"p95_ns"`
	// P99Ns is the 99th-percentile latency in nanoseconds.
	P99Ns int64 `json:"p99_ns"`
	// MaxNs is the maximum sampled latency in nanoseconds.
	MaxNs int64 `json:"max_ns"`
	// Samples is how many latency samples the quantiles were computed over.
	Samples int `json:"samples"`
	// ServerOpsDelta is how many operations of Kind the server's /v1/stats
	// counted during the run (self and HTTP targets only): the server-side
	// confirmation that the offered load was actually seen.
	ServerOpsDelta int64 `json:"server_ops_delta,omitempty"`
	// Go is the toolchain version.
	Go string `json:"go"`
	// GOMAXPROCS is the scheduler width of the run.
	GOMAXPROCS int `json:"gomaxprocs"`
}

// NewSummary assembles a Summary from a run's config and result.
func NewSummary(cfg Config, res Result, target, kindName, opName string) Summary {
	cfg = cfg.withDefaults()
	return Summary{
		Schema:         SummarySchema,
		Mode:           string(cfg.Mode),
		Distribution:   string(cfg.Keys.Dist),
		Target:         target,
		Kind:           kindName,
		Op:             opName,
		Batch:          cfg.OpsPerCall,
		Workers:        cfg.Workers,
		RateOpsS:       cfg.Rate,
		Poisson:        cfg.Poisson,
		Keys:           cfg.Keys.Keys,
		Seed:           cfg.Seed,
		WarmupMs:       cfg.Warmup.Milliseconds(),
		MeasureMs:      cfg.Measure.Milliseconds(),
		Ops:            res.Ops,
		Calls:          res.Calls,
		ErrorCount:     res.Errors,
		Overflows:      res.Overflows,
		ThroughputOpsS: res.Throughput,
		P50Ns:          int64(res.P50),
		P95Ns:          int64(res.P95),
		P99Ns:          int64(res.P99),
		MaxNs:          int64(res.Max),
		Samples:        res.Samples,
		Go:             runtime.Version(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
	}
}

// Emit writes the Summary as one JSON line.
func (s Summary) Emit(w io.Writer) error {
	enc, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(enc))
	return err
}

// Human returns a one-line human-readable digest of the Summary.
func (s Summary) Human() string {
	return fmt.Sprintf("%s/%s %s %s/%s batch=%d workers=%d: %d ops (%d errors) %.0f ops/s, p50=%v p95=%v p99=%v max=%v",
		s.Mode, s.Distribution, s.Target, s.Kind, s.Op, s.Batch, s.Workers,
		s.Ops, s.ErrorCount, s.ThroughputOpsS,
		time.Duration(s.P50Ns), time.Duration(s.P95Ns), time.Duration(s.P99Ns), time.Duration(s.MaxNs))
}
