package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mdcc"
	"mdcc/internal/core"
	"mdcc/internal/transport"
)

// buildServer compiles this package into the test's temp dir.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "mdcc-server")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// freePorts reserves n distinct loopback ports.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	return ports
}

// deployment is the running five-process cluster.
type deployment struct {
	topo     *mdcc.RemoteTopology
	bin      string
	topoPath string
	procs    []*exec.Cmd // by data center
	http     []string    // each server's -http address
	logDir   string
}

// startDeployment boots one `mdcc-server -gateway -http -trace` process
// per data center from a topology file and waits until every listener
// accepts. Each runs the flight recorder with a 1ns slow bound, so every
// transaction it completes is retained for /trace.
func startDeployment(t *testing.T, bin string) *deployment {
	t.Helper()
	dcs := mdcc.AllDCs()
	ports := freePorts(t, 2*len(dcs))
	d := &deployment{
		topo:   &mdcc.RemoteTopology{NodesPerDC: 1, Mode: "mdcc", Addrs: map[string]string{}},
		bin:    bin,
		procs:  make([]*exec.Cmd, len(dcs)),
		logDir: t.TempDir(),
	}
	for i, dc := range dcs {
		d.topo.Addrs[dc.String()] = fmt.Sprintf("127.0.0.1:%d", ports[i])
		d.http = append(d.http, fmt.Sprintf("127.0.0.1:%d", ports[len(dcs)+i]))
	}
	blob, err := json.Marshal(d.topo)
	if err != nil {
		t.Fatal(err)
	}
	d.topoPath = filepath.Join(d.logDir, "topology.json")
	if err := os.WriteFile(d.topoPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, p := range d.procs {
			if p != nil {
				_ = p.Process.Kill()
				_ = p.Wait()
			}
		}
	})
	for i := range dcs {
		d.start(t, i)
	}
	for i := range dcs {
		d.waitUp(t, i)
	}
	return d
}

// start launches data center i's server process on its fixed addresses,
// appending to its log (a restarted process continues the same file).
func (d *deployment) start(t *testing.T, i int) {
	t.Helper()
	dc := mdcc.AllDCs()[i]
	logf, err := os.OpenFile(filepath.Join(d.logDir, dc.String()+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(d.bin, "-topology", d.topoPath, "-dc", dc.String(), "-gateway", "-http", d.http[i],
		"-trace", "-trace-slow", "1ns")
	cmd.Stdout, cmd.Stderr = logf, logf
	err = cmd.Start()
	logf.Close() // the child holds its own descriptor
	if err != nil {
		t.Fatalf("start %s: %v", dc, err)
	}
	d.procs[i] = cmd
}

// waitUp blocks until data center i's transport listener accepts.
func (d *deployment) waitUp(t *testing.T, i int) {
	t.Helper()
	dc := mdcc.AllDCs()[i]
	addr := d.topo.Addrs[dc.String()]
	deadline := time.Now().Add(15 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			conn.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server %s never came up on %s\n%s", dc, addr, d.logs())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// logs returns every server's log, for failure messages.
func (d *deployment) logs() string {
	var out []byte
	for _, dc := range mdcc.AllDCs() {
		b, _ := os.ReadFile(filepath.Join(d.logDir, dc.String()+".log"))
		out = append(out, b...)
	}
	return string(out)
}

// get returns the body of data center i's HTTP endpoint path, which
// must answer 200.
func (d *deployment) get(t *testing.T, i int, path string) []byte {
	t.Helper()
	url := "http://" + d.http[i] + path
	resp, err := (&http.Client{Timeout: 2 * time.Second}).Get(url)
	if err != nil {
		t.Fatalf("get %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("get %s: %s %v\n%s", url, resp.Status, err, body)
	}
	return body
}

// scrape decodes data center i's /metrics document into v.
func (d *deployment) scrape(t *testing.T, i int, v interface{}) {
	t.Helper()
	if err := json.Unmarshal(d.get(t, i, "/metrics"), v); err != nil {
		t.Fatalf("decode %s/metrics: %v", d.http[i], err)
	}
}

// waitApplied blocks until each server's replica has applied exactly
// puts[i] writes (its store's put count on /metrics). A negative count
// is not checked.
func (d *deployment) waitApplied(t *testing.T, puts []int64) {
	t.Helper()
	for i, want := range puts {
		if want < 0 {
			continue
		}
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			var m struct {
				Shards []struct {
					Puts int64 `json:"puts"`
				} `json:"shards"`
			}
			d.scrape(t, i, &m)
			if len(m.Shards) == 1 && m.Shards[0].Puts == want {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s applied %+v writes, want %d", mdcc.AllDCs()[i], m.Shards, want)
			}
		}
	}
}

// waitCaughtUp blocks, for at most ten anti-entropy periods, until
// server i's replica holds every key of want and a read through sess,
// a session of that server's gateway, returns each key's attribute n
// as want has it.
func (d *deployment) waitCaughtUp(t *testing.T, i int, sess *mdcc.RemoteSession, want map[mdcc.Key]int64) {
	t.Helper()
	deadline := time.Now().Add(10 * core.SyncEvery)
	for {
		var m struct {
			Shards []struct {
				Keys int `json:"keys"`
			} `json:"shards"`
		}
		d.scrape(t, i, &m)
		caught, got := len(m.Shards) == 1 && m.Shards[0].Keys == len(want), ""
		for k, n := range want {
			if !caught {
				break
			}
			v, _, ok, err := sess.Read(k)
			caught = err == nil && ok && v.Attr("n") == n
			got = fmt.Sprintf("%s reads n=%d ok=%v err=%v, want n=%d", k, v.Attr("n"), ok, err, n)
		}
		if caught {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s not caught up after %s: %+v; %s", mdcc.AllDCs()[i], 10*core.SyncEvery, m.Shards, got)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop sends every server SIGINT and requires a clean exit within five
// seconds each.
func (d *deployment) stop(t *testing.T) {
	t.Helper()
	for _, p := range d.procs {
		if err := p.Process.Signal(os.Interrupt); err != nil {
			t.Errorf("signal pid %d: %v", p.Process.Pid, err)
		}
	}
	for i, p := range d.procs {
		done := make(chan error, 1)
		go func(p *exec.Cmd) { done <- p.Wait() }(p)
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("server %s exited uncleanly: %v", mdcc.AllDCs()[i], err)
			}
		case <-time.After(5 * time.Second):
			_ = p.Process.Kill()
			<-done
			t.Errorf("server %s still running 5s after SIGINT", mdcc.AllDCs()[i])
		}
	}
	for i := range d.procs {
		d.procs[i] = nil
	}
	if t.Failed() {
		t.Logf("server logs:\n%s", d.logs())
	}
}

// TestServerProcesses is the one check of the mdcc-server *binary*: five
// `-gateway -http -trace` processes boot from a topology file, a thin
// client commits and reads through mdcc.DialGateway, every server's
// /metrics shows transport traffic, recorded events and phase latencies,
// the gateway's /trace serves the commit's timeline, a read-checked
// insert and a delete commit, and SIGINT shuts each down cleanly.
// (benchmark/ measures the same deployment; it runs it in one process.)
func TestServerProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots five server processes")
	}
	d := startDeployment(t, buildServer(t))

	sess, err := mdcc.DialGateway(d.topo, mdcc.USWest, "process-test", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sess.EnableSessionGuarantees()
	if ok, err := sess.Commit(mdcc.Insert("proc/1", mdcc.Value{Attrs: map[string]int64{"n": 1}})); err != nil || !ok {
		t.Fatalf("insert through the gateway: ok=%v err=%v\n%s", ok, err, d.logs())
	}
	v, ver, ok, err := sess.Read("proc/1")
	if err != nil || !ok || v.Attr("n") != 1 {
		t.Fatalf("read back: n=%d ok=%v err=%v, want n=1", v.Attr("n"), ok, err)
	}

	// Every replica applies the insert, which its recorder times as the
	// visibility phase.
	d.waitApplied(t, []int64{1, 1, 1, 1, 1})
	for i := range d.http {
		var m struct {
			Transport   transport.Stats `json:"transport"`
			TraceEvents uint64          `json:"traceEvents"`
			Phases      []struct {
				Phase string `json:"phase"`
				N     int64  `json:"n"`
			} `json:"phases"`
		}
		d.scrape(t, i, &m)
		if m.Transport.MsgsSent == 0 {
			t.Errorf("%s: /metrics shows no transport sends after a commit: %+v", mdcc.AllDCs()[i], m.Transport)
		}
		if m.TraceEvents == 0 || len(m.Phases) == 0 || m.Phases[0].N == 0 {
			t.Errorf("%s: /metrics shows %d trace events and phases %+v after a commit", mdcc.AllDCs()[i], m.TraceEvents, m.Phases)
		}
		if i == 0 && (len(m.Phases) == 0 || m.Phases[len(m.Phases)-1].Phase != "end-to-end[dc0]") {
			t.Errorf("%s: the gateway's last phase is not its end-to-end latency: %+v", mdcc.AllDCs()[i], m.Phases)
		}
	}
	// The gateway completed the insert, so its recorder retained it: one
	// line per timeline, or a header and one line per event with ?full=1.
	if compact := string(d.get(t, 0, "/trace")); !strings.HasPrefix(compact, "tx=") || !strings.Contains(compact, " commit ") {
		t.Errorf("/trace serves no committed timeline:\n%s", compact)
	}
	if full := string(d.get(t, 0, "/trace?full=1")); !strings.Contains(full, "commit in ") || !strings.Contains(full, "keys [proc/1]") ||
		!strings.Contains(full, "\n  +") {
		t.Errorf("/trace?full=1 serves no event lines for the insert:\n%s", full)
	}

	// A read-checked insert and a delete commit through the gateway as
	// well, and the deleted record reads as absent.
	checked := []mdcc.Update{mdcc.ReadCheck("proc/unwritten", 0), mdcc.Insert("proc/2", mdcc.Value{Attrs: map[string]int64{"n": 2}})}
	if ok, err := sess.Commit(checked...); err != nil || !ok {
		t.Fatalf("read-checked insert: ok=%v err=%v", ok, err)
	}
	if ok, err := sess.Commit(mdcc.Delete("proc/1", ver)); err != nil || !ok {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}
	if _, _, ok, err := sess.Read("proc/1"); err != nil || ok {
		t.Fatalf("read after delete: ok=%v err=%v, want absent", ok, err)
	}
	d.stop(t)
}

// TestGatewayProcessRestart is the restart half of the binary's check: a
// `-gateway` process SIGKILLed and started again on the same addresses
// re-registers the same coordinator node ids, and every write the new
// process acknowledges must be applied: exactly once on every replica
// that kept running, and, within ten anti-entropy periods, on the
// restarted one, whose empty replica catches up. Acceptors remember each
// (lane, KeySeq) decision forever, so the successor is safe only because
// it names its own incarnation (DESIGN.md §8) — nothing here, and no
// flag of the server, tells it that it is a restart.
func TestGatewayProcessRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots five server processes")
	}
	d := startDeployment(t, buildServer(t))
	const west = 0 // mdcc.AllDCs()[0]
	keys := make([]mdcc.Key, 8)
	for i := range keys {
		keys[i] = mdcc.Key(fmt.Sprintf("restart/%d", i))
	}

	// The first process writes every key four times through its
	// coordinator: each call — committed or not — settles the lane's next
	// KeySeq on all eight keys, so a successor that re-minted the lane
	// would meet four settled KeySeqs on every key.
	sess, err := mdcc.DialGateway(d.topo, mdcc.USWest, "restart-test", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for ver := mdcc.Version(0); ver < 4; {
		ups := make([]mdcc.Update, len(keys))
		for i, k := range keys {
			ups[i] = mdcc.Physical(k, ver, mdcc.Value{Attrs: map[string]int64{"n": int64(ver)}})
		}
		ok, err := sess.Commit(ups...)
		if err != nil {
			t.Fatalf("first process, write %d: %v\n%s", ver, err, d.logs())
		}
		if ok {
			ver++
		} else if time.Now().After(deadline) {
			t.Fatalf("first process never committed write %d", ver)
		} else {
			time.Sleep(5 * time.Millisecond) // visibility of the previous write still in flight
		}
	}
	sess.Close()
	// Kill only once every replica has applied all four writes: a
	// visibility message that died in the killed gateway's batch window
	// would leave an option outstanding, and the abort it causes below
	// would be the protocol's, not a restart's.
	puts := make([]int64, len(d.http))
	for i := range puts {
		puts[i] = int64(4 * len(keys))
	}
	d.waitApplied(t, puts)

	if err := d.procs[west].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = d.procs[west].Wait()
	d.start(t, west)
	d.waitUp(t, west)
	// No -data: the process's replica restarts empty and catches up by
	// adopting its peers' bases, so its put count is not theirs.
	puts[west] = -1

	sess, err = mdcc.DialGateway(d.topo, mdcc.USWest, "restart-test", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	// Two rounds, so each key is also written at a version only the
	// restarted process produced. ReadLatest, not Read: the restarted
	// replica starts empty, and anti-entropy may not have caught it up
	// yet.
	acked := make(map[mdcc.Key]int64, len(keys))
	for round := int64(1); round <= 2; round++ {
		for i, k := range keys {
			v, ver, ok, err := sess.ReadLatest(k)
			if err != nil || !ok {
				t.Fatalf("restarted gateway, read %s: ok=%v err=%v\n%s", k, ok, err, d.logs())
			}
			up := mdcc.Physical(k, ver, v.WithAttr("n", 100*round+int64(i)))
			if ok, err := sess.Commit(up); err != nil || !ok {
				t.Fatalf("restarted gateway, round %d: uncontended write to %s at version %d: committed=%v err=%v",
					round, k, ver, ok, err)
			}
			acked[k] = 100*round + int64(i)
		}
		// Acknowledged means applied, on every replica.
		for i := range puts {
			if i != west {
				puts[i] += int64(len(keys))
			}
		}
		d.waitApplied(t, puts)
		d.waitCaughtUp(t, west, sess, acked)
		for i, k := range keys {
			if v, _, _, err := sess.ReadLatest(k); err != nil || v.Attr("n") != 100*round+int64(i) {
				t.Errorf("round %d: %s reads n=%d err=%v, want the acknowledged n=%d", round, k, v.Attr("n"), err, 100*round+int64(i))
			}
		}
	}
	d.stop(t)
}
