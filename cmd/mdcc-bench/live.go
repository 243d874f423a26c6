package main

// The live arm: the first real-clock measurement in the repo. Where
// every other subcommand runs in virtual time on the simulator, `live`
// builds cmd/mdcc-server, boots the full 5-process `-gateway` TCP
// deployment on loopback, and drives it OPEN-LOOP at fixed offered
// arrival rates — the coordinated-omission-safe way: every arrival has
// a scheduled time t_i = start + i/rate, latency is measured from the
// *schedule*, never from when a backed-up client actually got around
// to issuing, so server stalls surface as tail latency instead of
// silently thinning the offered load.
//
// One deployment serves the whole rate sweep, which yields the headline
// table BENCH_live.json commits: p50/p99/p999 vs offered load, achieved
// tx/s, and the wire bytes/message scraped from the servers' /metrics
// deltas. A static per-message-type wire-size table rides along (same
// encoders the transports use).

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mdcc"
	"mdcc/internal/core"
	"mdcc/internal/paxos"
	"mdcc/internal/record"
	"mdcc/internal/stats"
	"mdcc/internal/topology"
	"mdcc/internal/transport"
)

var (
	liveRates    = flag.String("live.rates", "200,500,1000,2000", "offered arrival rates (tx/s) to sweep")
	liveWarm     = flag.Duration("live.warmup", 3*time.Second, "per-rate warmup before the measured window")
	liveMeasure  = flag.Duration("live.measure", 8*time.Second, "per-rate measured window")
	liveInflight = flag.Int("live.inflight", 512, "max concurrently outstanding transactions (arrivals past this queue, CO-safely)")
	liveConns    = flag.Int("live.conns", 4, "client connections per data center")
	liveKeys     = flag.Int("live.keys", 64, "hot keys the workload decrements")
	liveServer   = flag.String("live.server-bin", "", "prebuilt mdcc-server binary (default: go build it)")
	liveOut      = flag.String("live.out", "BENCH_live.json", "JSON output path")
)

// liveRun is one offered-rate cell of the sweep.
type liveRun struct {
	OfferedTPS  float64 `json:"offeredTPS"`
	AchievedTPS float64 `json:"achievedTPS"` // committed tx/s in the measured window
	Commits     int64   `json:"commits"`
	Aborts      int64   `json:"aborts"`
	Errors      int64   `json:"errors"`
	P50Ms       float64 `json:"p50Ms"`
	P99Ms       float64 `json:"p99Ms"`
	P999Ms      float64 `json:"p999Ms"`
	MeanMs      float64 `json:"meanMs"`
	MaxMs       float64 `json:"maxMs"`
	// Wire totals across all five servers over the measured window
	// (scraped from /metrics deltas).
	WireMsgs     int64   `json:"wireMsgs"`
	WireBytes    int64   `json:"wireBytes"`
	BytesPerMsg  float64 `json:"bytesPerMsg"`
	DroppedMsgs  int64   `json:"droppedMsgs"`
	MsgsPerTx    float64 `json:"msgsPerTx"`
	WallSeconds  float64 `json:"wallSeconds"`
	QueueMaxWait float64 `json:"queueMaxWaitMs"` // largest schedule lag observed at issue time
}

// liveTypeSize is one row of the static per-type wire-size table.
type liveTypeSize struct {
	Type     string `json:"type"`
	BinBytes int    `json:"binBytes"`
}

type liveReport struct {
	GeneratedBy string         `json:"generatedBy"`
	GOOS        string         `json:"goos"`
	GOARCH      string         `json:"goarch"`
	CPUs        int            `json:"cpus"`
	Mode        string         `json:"mode"`
	Keys        int            `json:"keys"`
	Inflight    int            `json:"maxInflight"`
	Warmup      string         `json:"warmup"`
	Measure     string         `json:"measure"`
	Runs        []liveRun      `json:"runs"`
	TypeSizes   []liveTypeSize `json:"perTypeBytes"`
}

// liveBench orchestrates the whole sweep.
func liveBench() {
	header("Live bench — real-clock open-loop latency over the 5-process TCP deployment",
		"first hardware measurement: p50/p99/p999 vs offered load")

	bin := *liveServer
	if bin == "" {
		var err error
		bin, err = buildServer()
		if err != nil {
			fatalf("build mdcc-server: %v", err)
		}
	}
	rates := parseRates(*liveRates)

	report := liveReport{
		GeneratedBy: "mdcc-bench live",
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CPUs:        runtime.NumCPU(),
		Mode:        "mdcc",
		Keys:        *liveKeys,
		Inflight:    *liveInflight,
		Warmup:      liveWarm.String(),
		Measure:     liveMeasure.String(),
		TypeSizes:   typeSizeTable(),
	}

	fmt.Printf("\nper-type wire bytes (envelope incl. framing):\n")
	fmt.Printf("%-22s %10s\n", "message", "bytes")
	for _, ts := range report.TypeSizes {
		fmt.Printf("%-22s %10d\n", ts.Type, ts.BinBytes)
	}

	fmt.Printf("\n%9s %10s %8s %8s %8s %8s %12s %10s\n",
		"offered", "achieved", "p50ms", "p99ms", "p999ms", "aborts", "bytes/msg", "msgs/tx")
	dep, err := startDeployment(bin)
	if err != nil {
		fatalf("start deployment: %v", err)
	}
	for _, rate := range rates {
		run, err := dep.drive(rate)
		if err != nil {
			dep.stop()
			fatalf("drive @ %d tx/s: %v", rate, err)
		}
		report.Runs = append(report.Runs, run)
		fmt.Printf("%9.0f %10.1f %8.1f %8.1f %8.1f %8d %12.1f %10.1f\n",
			run.OfferedTPS, run.AchievedTPS, run.P50Ms, run.P99Ms, run.P999Ms,
			run.Aborts, run.BytesPerMsg, run.MsgsPerTx)
	}
	dep.stop()

	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.WriteFile(*liveOut, append(blob, '\n'), 0o644); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("wrote %s\n", *liveOut)
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "mdcc-bench live: "+format+"\n", args...)
	os.Exit(1)
}

func parseRates(s string) []int {
	var rates []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			fatalf("bad -live.rates entry %q", f)
		}
		rates = append(rates, n)
	}
	return rates
}

// buildServer compiles cmd/mdcc-server into a temp dir.
func buildServer() (string, error) {
	dir, err := os.MkdirTemp("", "mdcc-live")
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "mdcc-server")
	cmd := exec.Command("go", "build", "-o", bin, "mdcc/cmd/mdcc-server")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", err
	}
	return bin, nil
}

// deployment is the running 5-process cluster plus the client fabric.
type deployment struct {
	procs    []*exec.Cmd
	logs     []*os.File
	tmpDir   string
	httpURLs []string
	topo     *mdcc.RemoteTopology
	sessions []*mdcc.RemoteSession
	hot      []mdcc.Key
}

// freePorts reserves n distinct loopback ports.
func freePorts(n int) ([]int, error) {
	ports := make([]int, 0, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// startDeployment boots the five mdcc-server -gateway processes and
// waits until every listener accepts.
func startDeployment(bin string) (*deployment, error) {
	dcs := topology.AllDCs()
	ports, err := freePorts(2 * len(dcs))
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "mdcc-live-run")
	if err != nil {
		return nil, err
	}
	d := &deployment{tmpDir: tmp}

	addrs := make(map[string]string, len(dcs))
	for i, dc := range dcs {
		addrs[dc.String()] = fmt.Sprintf("127.0.0.1:%d", ports[i])
	}
	min := int64(0)
	topo := &mdcc.RemoteTopology{
		NodesPerDC: 1,
		Mode:       "mdcc",
		Addrs:      addrs,
		Constraints: []struct {
			Attr string `json:"attr"`
			Min  *int64 `json:"min"`
			Max  *int64 `json:"max"`
		}{{Attr: "stock", Min: &min}},
	}
	d.topo = topo
	blob, err := json.Marshal(topo)
	if err != nil {
		return nil, err
	}
	topoPath := filepath.Join(tmp, "topology.json")
	if err := os.WriteFile(topoPath, blob, 0o644); err != nil {
		return nil, err
	}

	for i, dc := range dcs {
		httpAddr := fmt.Sprintf("127.0.0.1:%d", ports[len(dcs)+i])
		d.httpURLs = append(d.httpURLs, "http://"+httpAddr+"/metrics")
		logf, err := os.Create(filepath.Join(tmp, dc.String()+".log"))
		if err != nil {
			d.stop()
			return nil, err
		}
		d.logs = append(d.logs, logf)
		cmd := exec.Command(bin,
			"-topology", topoPath,
			"-dc", dc.String(),
			"-gateway",
			"-http", httpAddr,
		)
		cmd.Stdout = logf
		cmd.Stderr = logf
		if err := cmd.Start(); err != nil {
			d.stop()
			return nil, fmt.Errorf("start %s: %v", dc, err)
		}
		d.procs = append(d.procs, cmd)
	}
	// Readiness: every server listener accepting.
	deadline := time.Now().Add(15 * time.Second)
	for _, dc := range dcs {
		addr := addrs[dc.String()]
		for {
			conn, err := net.DialTimeout("tcp", addr, time.Second)
			if err == nil {
				conn.Close()
				break
			}
			if time.Now().After(deadline) {
				d.stop()
				return nil, fmt.Errorf("server %s never came up on %s", dc, addr)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	// Client fabric: a few gateway connections per DC; arrivals fan out
	// over them round-robin so no single client transport bottlenecks.
	for _, dc := range dcs {
		for c := 0; c < *liveConns; c++ {
			sess, err := mdcc.DialGateway(topo, mustDC(dc.String()), fmt.Sprintf("live-%s-%d", dc, c), "127.0.0.1:0")
			if err != nil {
				d.stop()
				return nil, err
			}
			d.sessions = append(d.sessions, sess)
		}
	}

	// Preload the hot keys with effectively unlimited stock so the
	// escrow constraint never rejects (the point is wire speed, not
	// contention collapse).
	seed := d.sessions[0]
	for i := 0; i < *liveKeys; i++ {
		key := mdcc.Key(fmt.Sprintf("live/item%d", i))
		d.hot = append(d.hot, key)
		ok := false
		for attempt := 0; attempt < 10 && !ok; attempt++ {
			ok, err = seed.Commit(mdcc.Insert(key, mdcc.Value{Attrs: map[string]int64{"stock": 1 << 40}}))
			if err != nil {
				time.Sleep(100 * time.Millisecond)
			}
		}
		if !ok {
			d.stop()
			return nil, fmt.Errorf("preload %s: ok=%v err=%v", key, ok, err)
		}
	}
	return d, nil
}

func mustDC(name string) mdcc.DC {
	dc, err := mdcc.ParseDC(name)
	if err != nil {
		panic(err)
	}
	return dc
}

func (d *deployment) stop() {
	for _, s := range d.sessions {
		s.Close()
	}
	for _, p := range d.procs {
		if p.Process != nil {
			_ = p.Process.Signal(os.Interrupt)
		}
	}
	for _, p := range d.procs {
		done := make(chan struct{})
		go func(c *exec.Cmd) { c.Wait(); close(done) }(p)
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			_ = p.Process.Kill()
			<-done
		}
	}
	for _, f := range d.logs {
		f.Close()
	}
	d.procs, d.sessions, d.logs = nil, nil, nil
}

// wireTotals sums the transport counters across all servers.
type wireTotals struct {
	msgs, bytes, dropped int64
}

func (d *deployment) scrape() (wireTotals, error) {
	var tot wireTotals
	client := &http.Client{Timeout: 2 * time.Second}
	for _, url := range d.httpURLs {
		resp, err := client.Get(url)
		if err != nil {
			return tot, err
		}
		var m struct {
			Transport transport.Stats `json:"transport"`
		}
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if err != nil {
			return tot, err
		}
		tot.msgs += m.Transport.MsgsSent
		tot.bytes += m.Transport.BytesSent
		tot.dropped += m.Transport.DroppedNoRoute + m.Transport.DroppedQueueFull + m.Transport.DroppedConnDown
	}
	return tot, nil
}

// drive runs one open-loop window at the offered rate and returns the
// measured cell.
func (d *deployment) drive(rate int) (liveRun, error) {
	interval := time.Second / time.Duration(rate)
	warmN := int(liveWarm.Seconds() * float64(rate))
	measureN := int(liveMeasure.Seconds() * float64(rate))
	totalN := warmN + measureN

	var (
		mu        sync.Mutex
		hist      = stats.NewHistogram(0)
		commits   int64
		aborts    int64
		errors    int64
		maxLag    time.Duration
		wStart    wireTotals
		scrapeErr error
	)
	sem := make(chan struct{}, *liveInflight)
	var wg sync.WaitGroup

	start := time.Now().Add(50 * time.Millisecond)
	for i := 0; i < totalN; i++ {
		sched := start.Add(time.Duration(i) * interval)
		if wait := time.Until(sched); wait > 0 {
			time.Sleep(wait)
		}
		if i == warmN {
			// Measured window opens exactly at this arrival's schedule:
			// snapshot the wire counters for the window delta.
			wStart, scrapeErr = d.scrape()
			if scrapeErr != nil {
				return liveRun{}, scrapeErr
			}
		}
		measured := i >= warmN
		sess := d.sessions[i%len(d.sessions)]
		key := d.hot[i%len(d.hot)]
		wg.Add(1)
		sem <- struct{}{} // open-loop backlog bounded by maxInflight; the
		// arrival keeps its ORIGINAL schedule, so time spent waiting here
		// is part of its measured latency (no coordinated omission).
		go func(sched time.Time, measured bool) {
			defer wg.Done()
			defer func() { <-sem }()
			ok, err := sess.Commit(mdcc.Commutative(key, map[string]int64{"stock": -1}))
			lat := time.Since(sched)
			if !measured {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			hist.Add(lat.Microseconds())
			switch {
			case err != nil:
				errors++
			case ok:
				commits++
			default:
				aborts++
			}
			if lag := lat; lag > maxLag {
				maxLag = lag
			}
		}(sched, measured)
	}
	wg.Wait()
	wEnd, err := d.scrape()
	if err != nil {
		return liveRun{}, err
	}

	wall := liveMeasure.Seconds()
	run := liveRun{
		OfferedTPS:   float64(rate),
		AchievedTPS:  float64(commits) / wall,
		Commits:      commits,
		Aborts:       aborts,
		Errors:       errors,
		P50Ms:        float64(hist.Quantile(0.50)) / 1000,
		P99Ms:        float64(hist.Quantile(0.99)) / 1000,
		P999Ms:       float64(hist.Quantile(0.999)) / 1000,
		MeanMs:       hist.Mean() / 1000,
		MaxMs:        float64(hist.Max) / 1000,
		WireMsgs:     wEnd.msgs - wStart.msgs,
		WireBytes:    wEnd.bytes - wStart.bytes,
		DroppedMsgs:  wEnd.dropped - wStart.dropped,
		WallSeconds:  wall,
		QueueMaxWait: float64(maxLag.Milliseconds()),
	}
	if run.WireMsgs > 0 {
		run.BytesPerMsg = float64(run.WireBytes) / float64(run.WireMsgs)
	}
	if commits > 0 {
		run.MsgsPerTx = float64(run.WireMsgs) / float64(commits)
	}
	return run, nil
}

// typeSizeTable sizes representative hot messages with the same
// encoders the transports use. The samples mirror the
// live workload: commutative single-attribute options with escrow
// piggybacks.
func typeSizeTable() []liveTypeSize {
	opt := core.Option{
		Tx:    "gw/us-west/0#12345",
		Coord: "gw/us-west/0",
		Update: record.Update{
			Kind:   record.KindCommutative,
			Key:    "live/item12",
			Deltas: map[string]int64{"stock": -1},
		},
		WriteSet:  []record.Key{"live/item12"},
		KeySeq:    12345,
		WriteSeqs: []uint64{12345},
	}
	escrow := core.EscrowSnap{
		Valid: true, Version: 12345, Contenders: 3,
		Attrs: []core.AttrEscrow{{Attr: "stock", Base: 1 << 40, PendDown: -37, PendUp: 0}},
	}
	vote := core.MsgVote{
		OptID:  core.OptionID{Tx: opt.Tx, Key: "live/item12"},
		Ballot: paxos.Ballot{Fast: true},
		Escrow: escrow,
	}
	phase2a := core.MsgPhase2a{
		Key:     "live/item12",
		Ballot:  paxos.Ballot{N: 3, Leader: "dc1/store0"},
		Seq:     12345,
		CStruct: []core.VotedOption{{Opt: opt, Decision: core.DecAccept}},
		HasBase: true, BaseVersion: 12344,
		BaseValue:  record.Value{Attrs: map[string]int64{"stock": 1 << 40}},
		BaseExists: true,
		BaseLineage: core.LineageSummary{
			Lanes:  []core.LaneLineage{{Lane: "gw/us-west/0", Done: []core.SeqRange{{Lo: 1, Hi: 12344}}}},
			Deltas: true,
		},
	}
	feed := core.MsgVisibilityFeed{
		Epoch: 1, Seq: 999, Boot: 1,
		Items: []core.FeedItem{{
			Key: "live/item12", Value: record.Value{Attrs: map[string]int64{"stock": 1 << 40}},
			Version: 12345, Exists: true, Escrow: escrow,
		}},
	}
	batch := transport.Batch{Items: []transport.Envelope{
		{From: "dc1/store0", To: "gw/us-west/0", Msg: vote},
		{From: "dc1/store0", To: "gw/us-west/0", Msg: core.MsgVoteBatch{Votes: []core.MsgVote{vote, vote}}},
	}}

	rows := []struct {
		name string
		msg  transport.Message
	}{
		{"MsgProposeFast", core.MsgProposeFast{Opt: opt}},
		{"MsgVote", vote},
		{"MsgVoteBatch", core.MsgVoteBatch{Votes: []core.MsgVote{vote, vote, vote}}},
		{"MsgPhase2a", phase2a},
		{"MsgPhase2b", core.MsgPhase2b{Key: "live/item12", Ballot: phase2a.Ballot, Seq: 12345, OK: true}},
		{"MsgVisibilityFeed", feed},
		{"transport.Batch", batch},
	}
	out := make([]liveTypeSize, 0, len(rows))
	for _, r := range rows {
		binN, err := transport.EncodedSize(r.msg)
		if err != nil {
			fatalf("wire size %s: %v", r.name, err)
		}
		out = append(out, liveTypeSize{Type: r.name, BinBytes: binN})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Type < out[j].Type })
	return out
}
