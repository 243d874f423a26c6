// mdcc-client is a command-line client for a TCP MDCC deployment.
//
//	mdcc-client -topology cluster.json -dc us-west get item/42
//	mdcc-client -topology cluster.json -dc us-west set item/42 stock=10 price=1999
//	mdcc-client -topology cluster.json -dc ap-tk   inc item/42 stock=-1
//	mdcc-client -topology cluster.json -dc us-west del item/42
//
// set and del perform an optimistic read-modify-write (retried on
// conflict); inc issues a commutative delta that commits in one
// wide-area round trip.
//
// -timing prints each operation's end-to-end latency; -n repeats a
// get or inc and summarizes the latency distribution (log-bucketed
// p50/p99/max) — the client-side end of the server's /trace and
// /metrics phase histograms when chasing a slow deployment.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"mdcc"
	"mdcc/internal/stats"
)

var (
	topoPath = flag.String("topology", "cluster.json", "topology JSON file")
	dcName   = flag.String("dc", "us-west", "home data center")
	clientID = flag.String("id", fmt.Sprintf("cli-%d", os.Getpid()), "unique client id")
	listen   = flag.String("listen", "127.0.0.1:0", "local reply address")
	retries  = flag.Int("retries", 5, "optimistic retry attempts for set/del")
	timing   = flag.Bool("timing", false, "print each operation's end-to-end latency")
	repeat   = flag.Int("n", 1, "repeat a get or inc N times and print a latency summary (p50/p99/max)")
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mdcc-client [flags] get|set|inc|del KEY [attr=value ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 2 {
		flag.Usage()
		os.Exit(2)
	}
	if *repeat < 1 {
		fmt.Fprintf(os.Stderr, "mdcc-client: -n %d: below 1\n", *repeat)
		os.Exit(2)
	}
	if *retries < 1 {
		fmt.Fprintf(os.Stderr, "mdcc-client: -retries %d: below 1\n", *retries)
		os.Exit(2)
	}
	log.SetFlags(0)

	topo, err := mdcc.LoadRemoteTopology(*topoPath)
	if err != nil {
		log.Fatal(err)
	}
	dc, err := mdcc.ParseDC(*dcName)
	if err != nil {
		log.Fatal(err)
	}
	sess, err := mdcc.Dial(topo, dc, *clientID, *listen)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	cmd, key := flag.Arg(0), mdcc.Key(flag.Arg(1))
	switch cmd {
	case "get":
		var hist *stats.Histogram
		if *repeat > 1 {
			hist = stats.NewHistogram(0)
		}
		for i := 0; i < *repeat; i++ {
			t0 := time.Now()
			val, ver, exists, err := sess.Read(key)
			took := time.Since(t0)
			if err != nil {
				log.Fatal(err)
			}
			if hist != nil {
				hist.Add(int64(took))
				continue
			}
			if *timing {
				log.Printf("read took %s", took.Round(time.Microsecond))
			}
			if !exists {
				fmt.Printf("%s: not found (version %d)\n", key, ver)
				os.Exit(1)
			}
			fmt.Printf("%s = %s (version %d)\n", key, val, ver)
		}
		summarize("read", hist)

	case "set":
		attrs, err := parseAttrs(flag.Args()[2:])
		if err != nil {
			log.Fatal(err)
		}
		ok, err := sess.Transact(*retries, func(tx *mdcc.TxView) error {
			old, ver, _ := tx.Read(key)
			next := old.Clone()
			if next.Attrs == nil {
				next.Attrs = map[string]int64{}
			}
			next.Tombstone = false
			for k, v := range attrs {
				next.Attrs[k] = v
			}
			tx.Write(key, ver, next)
			return nil
		})
		report(ok, err)

	case "inc":
		deltas, err := parseAttrs(flag.Args()[2:])
		if err != nil {
			log.Fatal(err)
		}
		if len(deltas) == 0 {
			log.Fatal("inc needs at least one attr=delta")
		}
		var hist *stats.Histogram
		if *repeat > 1 {
			hist = stats.NewHistogram(0)
		}
		var ok bool
		for i := 0; i < *repeat; i++ {
			t0 := time.Now()
			ok, err = sess.Commit(mdcc.Commutative(key, deltas))
			took := time.Since(t0)
			if err != nil {
				log.Fatal(err)
			}
			if hist != nil {
				if !ok {
					log.Fatalf("inc %d/%d ABORTED; stopping the latency run", i+1, *repeat)
				}
				hist.Add(int64(took))
				continue
			}
			if *timing {
				log.Printf("commit took %s", took.Round(time.Microsecond))
			}
		}
		summarize("commit", hist)
		report(ok, err)

	case "del":
		ok, err := sess.Transact(*retries, func(tx *mdcc.TxView) error {
			_, ver, exists := tx.Read(key)
			if !exists {
				return fmt.Errorf("%s: not found", key)
			}
			tx.Delete(key, ver)
			return nil
		})
		report(ok, err)

	default:
		flag.Usage()
		os.Exit(2)
	}
}

func parseAttrs(args []string) (map[string]int64, error) {
	out := make(map[string]int64, len(args))
	for _, a := range args {
		name, valStr, ok := strings.Cut(a, "=")
		if !ok {
			return nil, fmt.Errorf("bad attribute %q (want name=int)", a)
		}
		v, err := strconv.ParseInt(valStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad attribute %q: %v", a, err)
		}
		out[name] = v
	}
	return out, nil
}

// summarize prints the -n latency run's distribution. Nil hist (a
// single-shot invocation) is a no-op.
func summarize(op string, hist *stats.Histogram) {
	if hist == nil {
		return
	}
	ms := func(ns int64) float64 { return float64(ns) / float64(time.Millisecond) }
	fmt.Printf("%s latency over %d ops: p50=%.1fms p99=%.1fms max=%.1fms mean=%.1fms\n",
		op, hist.N, ms(hist.Quantile(0.50)), ms(hist.Quantile(0.99)), ms(hist.Max),
		hist.Mean()/float64(time.Millisecond))
}

func report(ok bool, err error) {
	if err != nil {
		log.Fatal(err)
	}
	// Visibility notifications are asynchronous; give the transport a
	// beat to flush them before the process exits (otherwise the
	// storage nodes' dangling-transaction sweep has to finish the
	// transaction seconds later).
	time.Sleep(250 * time.Millisecond)
	if !ok {
		fmt.Println("ABORTED (write-write conflict or constraint violation)")
		os.Exit(1)
	}
	fmt.Println("COMMITTED")
}
