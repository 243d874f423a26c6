package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"mdcc/internal/stats"
)

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of one run: what the last output line carries,
// plus the run's circumstances for -out.
type report struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Traced    bool     `json:"traced"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Metrics   []metric `json:"metrics"`
	Error     string   `json:"error,omitempty"`

	Env struct {
		NProc      int     `json:"nproc"`
		GOMAXPROCS int     `json:"gomaxprocs"`
		GoVersion  string  `json:"go_version"`
		Rate       int     `json:"R"`
		Callers    int     `json:"K"`
		Keys       int     `json:"keys"`
		Warmup     int     `json:"warmup_txns"`
		Sessions   int     `json:"client_sessions"`
		Seconds    float64 `json:"seconds"`
		PacedN     int     `json:"paced_samples"`
		ClosedN    int64   `json:"closed_samples"`
		GenLagMs   float64 `json:"gen_lag_max_ms"`
		// Untraced runs: what is measured but not gated.
		TailMs      map[string]float64 `json:"paced_tail_ms"`
		CPUPerTxnUs float64            `json:"paced_cpu_us_per_txn"`
		SetupRuns   []float64          `json:"setup_s_each"`
		TraceFile   string             `json:"trace_file,omitempty"`
	} `json:"env"`
}

func (r *report) add(name string, value float64, unit string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	r.Metrics = append(r.Metrics, metric{name, value, unit})
}

// options of one run.
type options struct {
	seed    int64
	seconds float64 // measuring time, split between the phases
	traced  bool
	quick   bool
	scratch string // data directories of durable nodes
	outDir  string // trace files
}

// setupReps is how many times an untraced run sets the deployment up;
// setup_s is the median, the last one is measured.
const setupReps = 3

// phase ramps: load runs this long before a window is recorded.
func (o options) ramp() time.Duration {
	if o.quick {
		return 300 * time.Millisecond
	}
	return time.Second
}

func (o options) share(f float64) time.Duration {
	return time.Duration(o.seconds * f * float64(time.Second))
}

func ms(ns float64) float64 { return ns / 1e6 }

// msSample turns nanosecond observations into a sample in milliseconds.
func msSample(ns []int64) *stats.Sample {
	s := stats.NewSample(len(ns))
	for _, x := range ns {
		s.Add(ms(float64(x)))
	}
	return s
}

func median(xs []float64) float64 {
	s := stats.NewSample(len(xs))
	for _, x := range xs {
		s.Add(x)
	}
	return s.Median()
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// setup boots the deployment, inserts every key and runs the fixed-count
// warm-up. It reports the live heap the preloaded keys occupy.
func setup(s spec, o options, dataDir string, tr *tracer) (*driver, uint64, error) {
	heap0 := liveHeap()
	d, err := start(s, o.seed, dataDir, tr)
	if err != nil {
		return nil, 0, err
	}
	dr := newDriver(s, d, o.seed)
	if err := dr.preload(); err != nil {
		d.close()
		return nil, 0, err
	}
	var keyHeap uint64
	if tr != nil {
		keyHeap = liveHeap() - heap0
	}
	if got := dr.closedCount(s.warmup); got != int64(s.warmup) {
		d.close()
		return nil, 0, fmt.Errorf("warm-up: %d of %d transactions committed", got, s.warmup)
	}
	return dr, keyHeap, nil
}

// run executes one workload once and never panics on a failed check: a
// run that cannot be trusted comes back with Correct=false and Error set.
func run(s spec, o options) (rep report) {
	if o.quick {
		s = s.quick()
	}
	rep.Workload, rep.Seed, rep.Traced = s.name, o.seed, o.traced
	rep.Env.NProc, rep.Env.GOMAXPROCS, rep.Env.GoVersion = runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()
	rep.Env.Rate, rep.Env.Callers, rep.Env.Keys, rep.Env.Warmup = s.rate, s.callers, s.keys, s.warmup
	rep.Env.Sessions, rep.Env.Seconds = clientSessions, o.seconds

	dataRoot := filepath.Join(o.scratch, fmt.Sprintf("%s-%d", s.name, os.Getpid()))
	defer os.RemoveAll(dataRoot)
	fail := func(err error) report {
		rep.Correct, rep.Error = false, err.Error()
		return rep
	}

	var tr *tracer
	reps := setupReps
	if o.traced {
		tr, reps = newTracer(), 1
	}
	var dr *driver
	var keyHeap uint64
	for i := 0; i < reps; i++ {
		if dr != nil {
			dr.d.close()
		}
		t0 := time.Now()
		var err error
		dr, keyHeap, err = setup(s, o, filepath.Join(dataRoot, fmt.Sprint(i)), tr)
		if err != nil {
			return fail(fmt.Errorf("setup: %w", err))
		}
		rep.Env.SetupRuns = append(rep.Env.SetupRuns, time.Since(t0).Seconds())
	}
	defer func() { dr.d.close() }()

	if o.traced {
		tr.injected = dr.d.injected
		plain := dr.paced(o.ramp(), o.share(0.25), nil)
		probe := newProbe(dr.d)
		traced := dr.paced(o.ramp(), o.share(0.45), func() { probe.begin(); tr.on.Store(true) })
		tr.on.Store(false)
		probe.end()
		closedRes := dr.closed(o.ramp(), o.share(0.3))
		rep.Env.ClosedN = closedRes.committed
		rep.Attempted = plain.attempted + traced.attempted + closedRes.attempted
		rep.Failed = rep.Attempted - plain.committed - traced.committed - closedRes.committed
		rep.Env.PacedN, rep.Env.GenLagMs = len(traced.latNs), ms(float64(traced.genLagMaxNs))
		layerMetrics(&rep, s, keyHeap, plain, traced, closedRes, probe, tr)
		path, err := tr.write(o.outDir, s, o.seed, traced)
		if err != nil {
			return fail(fmt.Errorf("write trace: %w", err))
		}
		rep.Env.TraceFile = path
	} else {
		paced := dr.paced(o.ramp(), o.share(1), nil)
		heap := liveHeap()
		rep.Attempted, rep.Failed = paced.attempted, paced.attempted-paced.committed
		rep.Env.PacedN, rep.Env.GenLagMs = len(paced.latNs), ms(float64(paced.genLagMaxNs))
		if paced.committed == 0 {
			return fail(fmt.Errorf("no transaction committed"))
		}
		lat := msSample(paced.latNs)
		rep.add("setup_s", median(rep.Env.SetupRuns), "s")
		rep.add("txn_p50_ms", lat.Percentile(50), "ms")
		rep.add("txn_p75_ms", lat.Percentile(75), "ms")
		rep.add("commit_share", float64(paced.committed)/float64(paced.attempted), "ratio")
		rep.add("msgs_per_txn", float64(paced.envelopes)/float64(paced.committed), "1")
		rep.add("heap_live_mb", float64(heap)/(1<<20), "MB")
		rep.Env.CPUPerTxnUs = float64(paced.cpu.Microseconds()) / float64(paced.committed)
		rep.Env.TailMs = map[string]float64{"mean": lat.Mean()}
		for _, p := range []float64{90, 95, 99} {
			rep.Env.TailMs[fmt.Sprintf("p%.0f", p)] = lat.Percentile(p)
		}
	}

	if err := dr.verify(); err != nil {
		return fail(err)
	}
	dr.d.close()
	reopenMs := 0.0
	if s.durable {
		reopen, err := dr.verifyDurable()
		if err != nil {
			return fail(err)
		}
		reopenMs = ms(float64(reopen))
	}
	if o.traced {
		rep.add("kv.reopen_ms", reopenMs, "ms")
		if err := ladder(&rep, o); err != nil {
			return fail(err)
		}
	}
	rep.Correct = true
	return rep
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail
	}
	return ru
}

// cpuTime is the process's user + system CPU so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func rssPeakMB() float64 { return float64(rusage().Maxrss) / 1024 } // Linux reports KiB
