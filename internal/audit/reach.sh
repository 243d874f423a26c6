#!/usr/bin/env bash
# Measures which product functions the product's own runs reach, as one
# coverage profile, and checks it:
#
#   bash internal/audit/reach.sh [OUT]        (OUT defaults to reach-out)
#
# The runs are the ones that exercise the product as a product: the
# golden slice of every scenario, the wire round trip of the protocol's
# traffic, the two mdcc-server process tests (the spawned servers are
# built with coverage too and write their counters under GOCOVERDIR) and
# benchmark/'s smoke test. Each writes a profile over the product
# packages; OUT/union.cov holds all of them, OUT/func.txt is its
# `go tool cover -func` listing, and TestProductFunctionsAreReached fails
# on any product function the union leaves at 0 % that its allow-list
# does not name.
set -euo pipefail
cd "$(dirname "$0")/../.."
out=${1:-reach-out}
mkdir -p "$out"
out=$(cd "$out" && pwd)
rm -rf "$out"/*.cov "$out/servers" "$out/process.test"
mkdir -p "$out/servers"

pkgs=""
for p in core gateway wal kv record mtx paxos ring check trace stats server transport; do
	pkgs="$pkgs${pkgs:+,}mdcc/internal/$p"
done
# links lists, comma-separated, the product packages that the tests of
# the packages it is given link. A run instruments only those: a
# -coverpkg entry that nothing in a run links adds no block to its
# profile and draws a warning from go test.
links() { go list -deps -test "$@" | grep -Fx -f <(tr , '\n' <<<"$pkgs") | paste -sd, -; }
srv=$(links ./cmd/mdcc-server)
bench=$(cd benchmark && links .)

go test -count=1 ./internal/scenario -run 'TestScenarioVerdictsGolden|TestProtocolTrafficSurvivesWire' \
	-coverpkg="$pkgs" -coverprofile="$out/scenario.cov" >/dev/null
# The process tests' binary writes its own counters and, through
# GOFLAGS, builds the servers it spawns with coverage; they inherit
# GOCOVERDIR. A binary writes no counters unless its own main package is
# instrumented as well.
go test -c -o "$out/process.test" -cover -coverpkg="$srv" ./cmd/mdcc-server
(cd cmd/mdcc-server && GOFLAGS="-cover -coverpkg=$srv,mdcc/cmd/mdcc-server" GOCOVERDIR="$out/servers" \
	"$out/process.test" -test.count=1 -test.run 'TestServerProcesses|TestGatewayProcessRestart' \
	-test.gocoverdir="$out/servers" >/dev/null)
go tool covdata textfmt -i="$out/servers" -pkg="$pkgs" -o "$out/process.cov"
(cd benchmark && go test -count=1 -run TestSmoke -coverpkg="$bench" -coverprofile="$out/bench.cov" . >/dev/null)

# The union: one mode line, then every run's blocks. A block several
# runs list counts as reached when any of them reached it, both for
# `go tool cover` and for the checker.
{
	head -1 "$out/scenario.cov"
	tail -q -n +2 "$out/scenario.cov" "$out/process.cov" "$out/bench.cov"
} >"$out/union.cov"
go tool cover -func="$out/union.cov" >"$out/func.txt"
tail -1 "$out/func.txt"
go test -count=1 ./internal/audit -run TestProductFunctionsAreReached -reach.profile="$out/union.cov"
