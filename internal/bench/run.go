package bench

import (
	"time"

	"mdcc/internal/mtx"
	"mdcc/internal/stats"
)

// Event is a scheduled intervention (failures, recoveries).
type Event struct {
	At time.Duration // offset from run start
	Do func(w *World)
}

// RunConfig shapes one experiment run.
type RunConfig struct {
	Warmup  time.Duration
	Measure time.Duration
	// TimeSeriesBucket buckets the latency series (default 5s).
	TimeSeriesBucket time.Duration
	Events           []Event
}

// grace lets transactions that started inside the measure window
// finish (virtual time).
const grace = 5 * time.Second

// Result is one run's harvest.
type Result struct {
	// Committed write-transaction response times, in milliseconds
	// (the paper's primary metric).
	WriteLat *stats.Sample
	// Aborted write-transaction response times.
	AbortLat *stats.Sample
	// ReadLat holds read-only transaction response times.
	ReadLat *stats.Sample

	Commits, Aborts int64 // write transactions in the measure window
	Reads           int64 // read-only transactions in the window
	WriteTPS        float64

	// Series is the committed-transaction latency time series across
	// the whole run (warmup included), for figure 8.
	Series *stats.TimeSeries
}

// Run executes the workload on the world and collects results.
func Run(w *World, wl mtx.Workload, rc RunConfig) *Result {
	if rc.TimeSeriesBucket == 0 {
		rc.TimeSeriesBucket = 5 * time.Second
	}
	rng := w.Net.Rand()
	w.Preload(wl.Preload(rng))

	res := &Result{
		WriteLat: stats.NewSample(4096),
		AbortLat: stats.NewSample(1024),
		ReadLat:  stats.NewSample(4096),
		Series:   stats.NewTimeSeries(rc.TimeSeriesBucket),
	}

	start := w.Net.Now()
	measureFrom := start.Add(rc.Warmup)
	measureTo := measureFrom.Add(rc.Measure)

	for _, ev := range rc.Events {
		ev := ev
		w.Net.At(ev.At, func() { ev.Do(w) })
	}

	for ci := range w.Clients {
		ci := ci
		client := w.Clients[ci]
		dc := w.ClientDC(ci)
		var loop func()
		loop = func() {
			now := w.Net.Now()
			if !now.Before(measureTo) {
				return // window over: this client retires
			}
			txn := wl.Next(ci, dc, rng)
			txStart := now
			txn(client, rng, func(tr mtx.TxnResult) {
				end := w.Net.Now()
				latMS := float64(end.Sub(txStart)) / float64(time.Millisecond)
				if tr.Committed {
					res.Series.Add(end.Sub(start), latMS)
				}
				if !end.Before(measureFrom) && end.Before(measureTo) {
					switch {
					case !tr.Write:
						res.Reads++
						res.ReadLat.Add(latMS)
					case tr.Committed:
						res.Commits++
						res.WriteLat.Add(latMS)
					default:
						res.Aborts++
						res.AbortLat.Add(latMS)
					}
				}
				loop()
			})
		}
		w.Net.At(0, loop)
	}

	w.Net.RunFor(rc.Warmup + rc.Measure + grace)

	secs := rc.Measure.Seconds()
	if secs > 0 {
		res.WriteTPS = float64(res.Commits) / secs
	}
	return res
}
