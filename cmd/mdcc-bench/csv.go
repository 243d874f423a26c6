package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"mdcc/internal/bench"
)

// writeCSV writes header and rows as "<-csv dir>/<name>.csv" — the raw
// series behind a figure, ready for gnuplot/matplotlib — when -csv is
// set; what names the content in the confirmation line.
func writeCSV(name, what, header string, rows []string) {
	if *csvDir == "" {
		return
	}
	path := filepath.Join(*csvDir, name+".csv")
	data := strings.Join(append([]string{header}, rows...), "\n") + "\n"
	err := os.MkdirAll(*csvDir, 0o755)
	if err == nil {
		err = os.WriteFile(path, []byte(data), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "csv: %v\n", err)
		return
	}
	fmt.Printf("(%s written to %s)\n", what, path)
}

// writeCDFCSV dumps each protocol's latency CDF (figures 3 and 5),
// protocols in name order.
func writeCDFCSV(name string, results map[bench.Protocol]*bench.Result) {
	protos := make([]string, 0, len(results))
	for p := range results {
		protos = append(protos, string(p))
	}
	sort.Strings(protos)
	var rows []string
	for _, p := range protos {
		for _, pt := range results[bench.Protocol(p)].WriteLat.CDF(200) {
			rows = append(rows, fmt.Sprintf("%s,%.3f,%.5f", p, pt.X, pt.Frac))
		}
	}
	writeCSV(name, "raw CDF series", "protocol,latency_ms,cdf", rows)
}
