package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"mdcc"
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
	procs    []*exec.Cmd
	httpURLs []string
	logDir   string
}

// startDeployment boots one `mdcc-server -gateway -http` process per
// data center from a topology file and waits until every listener
// accepts.
func startDeployment(t *testing.T, bin string) *deployment {
	t.Helper()
	dcs := mdcc.AllDCs()
	ports := freePorts(t, 2*len(dcs))
	d := &deployment{
		topo:   &mdcc.RemoteTopology{NodesPerDC: 1, Mode: "mdcc", Addrs: map[string]string{}},
		logDir: t.TempDir(),
	}
	for i, dc := range dcs {
		d.topo.Addrs[dc.String()] = fmt.Sprintf("127.0.0.1:%d", ports[i])
	}
	blob, err := json.Marshal(d.topo)
	if err != nil {
		t.Fatal(err)
	}
	topoPath := filepath.Join(d.logDir, "topology.json")
	if err := os.WriteFile(topoPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, p := range d.procs {
			_ = p.Process.Kill()
			_ = p.Wait()
		}
	})
	for i, dc := range dcs {
		httpAddr := fmt.Sprintf("127.0.0.1:%d", ports[len(dcs)+i])
		d.httpURLs = append(d.httpURLs, "http://"+httpAddr+"/metrics")
		logf, err := os.Create(filepath.Join(d.logDir, dc.String()+".log"))
		if err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(bin, "-topology", topoPath, "-dc", dc.String(), "-gateway", "-http", httpAddr)
		cmd.Stdout, cmd.Stderr = logf, logf
		err = cmd.Start()
		logf.Close() // the child holds its own descriptor
		if err != nil {
			t.Fatalf("start %s: %v", dc, err)
		}
		d.procs = append(d.procs, cmd)
	}
	deadline := time.Now().Add(15 * time.Second)
	for _, dc := range dcs {
		addr := d.topo.Addrs[dc.String()]
		for {
			conn, err := net.DialTimeout("tcp", addr, time.Second)
			if err == nil {
				conn.Close()
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("server %s never came up on %s\n%s", dc, addr, d.logs())
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return d
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
	d.procs = nil
	if t.Failed() {
		t.Logf("server logs:\n%s", d.logs())
	}
}

// TestServerProcesses is the one check of the mdcc-server *binary*: five
// `-gateway -http` processes boot from a topology file, a thin client
// commits and reads through mdcc.DialGateway, every server's /metrics
// shows transport traffic, and SIGINT shuts each down cleanly.
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
	if v, _, ok, err := sess.Read("proc/1"); err != nil || !ok || v.Attr("n") != 1 {
		t.Fatalf("read back: n=%d ok=%v err=%v, want n=1", v.Attr("n"), ok, err)
	}

	client := &http.Client{Timeout: 2 * time.Second}
	for i, url := range d.httpURLs {
		resp, err := client.Get(url)
		if err != nil {
			t.Fatalf("scrape %s: %v", url, err)
		}
		var m struct {
			Transport transport.Stats `json:"transport"`
		}
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
		if m.Transport.MsgsSent == 0 {
			t.Errorf("%s: /metrics shows no transport sends after a commit: %+v", mdcc.AllDCs()[i], m.Transport)
		}
	}
	d.stop(t)
}
