package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mdcc/internal/core"
	"mdcc/internal/gateway"
	"mdcc/internal/transport"
)

// msgType indexes the message types the layers exchange.
type msgType uint8

const (
	tOther msgType = iota
	tBatch
	tRead
	tReadReply
	tProposeFast
	tProposeBatch
	tVote
	tVoteBatch
	tLearned
	tVisibility
	tVisibilityBatch
	tVisibilityFeed
	tGwTx
	tGwTxReply
	tGwRead
	tGwReadReply
	nMsgTypes
)

var msgTypeNames = [nMsgTypes]string{
	"Other", "Batch", "Read", "ReadReply", "ProposeFast", "ProposeBatch", "Vote", "VoteBatch",
	"Learned", "Visibility", "VisibilityBatch", "VisibilityFeed", "GwTx", "GwTxReply", "GwRead", "GwReadReply",
}

// typeOf names a message.
func typeOf(msg transport.Message) msgType {
	switch msg.(type) {
	case transport.Batch:
		return tBatch
	case core.MsgRead:
		return tRead
	case core.MsgReadReply:
		return tReadReply
	case core.MsgProposeFast:
		return tProposeFast
	case core.MsgProposeBatch:
		return tProposeBatch
	case core.MsgVote:
		return tVote
	case core.MsgVoteBatch:
		return tVoteBatch
	case core.MsgLearned:
		return tLearned
	case core.MsgVisibility:
		return tVisibility
	case core.MsgVisibilityBatch:
		return tVisibilityBatch
	case core.MsgVisibilityFeed:
		return tVisibilityFeed
	case gateway.MsgTx:
		return tGwTx
	case gateway.MsgTxReply:
		return tGwTxReply
	case gateway.MsgRead:
		return tGwRead
	case gateway.MsgReadReply:
		return tGwReadReply
	}
	return tOther
}

// txOf is the transaction a message belongs to, when it carries exactly
// one (the batched protocol messages hold one transaction's options for
// one node).
func txOf(msg transport.Message) string {
	switch m := msg.(type) {
	case core.MsgProposeFast:
		return string(m.Opt.Tx)
	case core.MsgProposeBatch:
		if len(m.Opts) > 0 {
			return string(m.Opts[0].Tx)
		}
	case core.MsgVote:
		return string(m.OptID.Tx)
	case core.MsgVoteBatch:
		if len(m.Votes) > 0 {
			return string(m.Votes[0].OptID.Tx)
		}
	case core.MsgLearned:
		return string(m.OptID.Tx)
	case core.MsgVisibility:
		return string(m.Opt.Tx)
	case core.MsgVisibilityBatch:
		if len(m.Items) > 0 {
			return string(m.Items[0].Opt.Tx)
		}
	case gateway.MsgTx:
		return "rpc#" + strconv.FormatUint(m.ReqID, 10)
	case gateway.MsgTxReply:
		return "rpc#" + strconv.FormatUint(m.ReqID, 10)
	}
	return ""
}

// role is the layer a node belongs to.
type role uint8

const (
	roleAcceptor role = iota
	roleCoord
	roleGateway
	nRoles
)

var roleNames = [nRoles]string{"core.acceptor", "core.coord", "gateway"}

func roleOf(id transport.NodeID) role {
	switch s := string(id); {
	case strings.HasPrefix(s, "gw/") && strings.Count(s, "/") == 1:
		return roleGateway
	case strings.HasPrefix(s, "gw/"), strings.HasPrefix(s, "session"):
		return roleCoord
	default:
		return roleAcceptor
	}
}

// span is one handler call at a layer boundary.
type span struct {
	node     transport.NodeID
	from     transport.NodeID // the sending node: the span's cause
	typ      msgType
	tx       string
	start    int64 // ns since the tracer's epoch
	dur      int64
	flight   int64   // send → handler start; 0 when the envelope carried no stamp
	items    []uint8 // Batch only: msgType of each item
	injected int64   // configured one-way latency of this hop
}

// tracer times every registered handler and counts every Send of the
// transports it wraps. It records from the benchmark's side of the
// transport.Network boundary; nothing inside the program changes. While
// off it costs one atomic load per message.
type tracer struct {
	epoch    time.Time
	on       atomic.Bool
	injected transport.LatencyFunc

	mu    sync.Mutex
	spans []span

	sends     [nMsgTypes]atomic.Int64
	items     [nMsgTypes]atomic.Int64 // messages carried inside Batch envelopes, by type
	batchEnvs atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// StampSend and ObserveRecv make the tracer a transport.WireTracer: the
// transports put the send time on the envelope, so the receiving handler
// knows how long the message was in flight.
func (t *tracer) StampSend() uint64  { return uint64(time.Since(t.epoch)) }
func (t *tracer) ObserveRecv(uint64) {}

func (t *tracer) countSend(msg transport.Message) {
	if !t.on.Load() {
		return
	}
	t.sends[typeOf(msg)].Add(1)
	if b, ok := msg.(transport.Batch); ok {
		t.batchEnvs.Add(1)
		for _, it := range b.Items {
			t.items[typeOf(it.Msg)].Add(1)
		}
	}
}

func (t *tracer) wrap(id transport.NodeID, h transport.Handler) transport.Handler {
	return func(env transport.Envelope) {
		if !t.on.Load() {
			h(env)
			return
		}
		start := time.Since(t.epoch)
		h(env)
		dur := time.Since(t.epoch) - start
		sp := span{node: id, from: env.From, typ: typeOf(env.Msg), tx: txOf(env.Msg), start: int64(start), dur: int64(dur)}
		if env.TraceClk != 0 {
			sp.flight = int64(start) - int64(env.TraceClk)
		}
		if t.injected != nil {
			sp.injected = int64(t.injected(env.From, id))
		}
		if b, ok := env.Msg.(transport.Batch); ok {
			sp.items = make([]uint8, len(b.Items))
			for i, it := range b.Items {
				sp.items[i] = uint8(typeOf(it.Msg))
			}
		}
		t.mu.Lock()
		t.spans = append(t.spans, sp)
		t.mu.Unlock()
	}
}

// tracedNet is the transport.Network the traced deployments are built on.
type tracedNet struct {
	transport.Network
	tr *tracer
}

func (n tracedNet) Register(id transport.NodeID, h transport.Handler) {
	n.Network.Register(id, n.tr.wrap(id, h))
}

func (n tracedNet) Send(from, to transport.NodeID, msg transport.Message) {
	n.tr.countSend(msg)
	n.Network.Send(from, to, msg)
}

// handlerStats aggregates the spans: handler time by layer, by node and
// by message type, and how long messages of each type were in flight
// beyond the configured latency (socket, codec, timer and mailbox wait).
// A Batch's handler time is shared equally among its items, because the
// boundary shows only the whole envelope; its flight time counts for
// every type it carries.
type handlerStats struct {
	byRole  [nRoles]int64
	byNode  map[transport.NodeID]int64
	typeNs  [nRoles][nMsgTypes]float64
	typeN   [nRoles][nMsgTypes]float64
	waitNs  [nRoles][nMsgTypes][]int64 // flight minus injected latency
	allWait []int64
}

func (t *tracer) aggregate() handlerStats {
	hs := handlerStats{byNode: make(map[transport.NodeID]int64)}
	for _, sp := range t.spans {
		r := roleOf(sp.node)
		hs.byRole[r] += sp.dur
		hs.byNode[sp.node] += sp.dur
		wait, stamped := sp.flight-sp.injected, sp.flight > 0
		if stamped {
			hs.allWait = append(hs.allWait, wait)
		}
		carried := sp.items
		if sp.typ != tBatch || len(sp.items) == 0 {
			carried = []uint8{uint8(sp.typ)}
		}
		var seen [nMsgTypes]bool
		for _, it := range carried {
			hs.typeNs[r][it] += float64(sp.dur) / float64(len(carried))
			hs.typeN[r][it]++
			if stamped && !seen[it] {
				seen[it] = true
				hs.waitNs[r][it] = append(hs.waitNs[r][it], wait)
			}
		}
	}
	return hs
}

// meanNs is the mean handler time of one message type at one layer.
func (hs *handlerStats) meanNs(r role, typ msgType) float64 {
	return ratio(hs.typeNs[r][typ], hs.typeN[r][typ])
}

// traceFile is what trace-<workload>.json holds. Times are microseconds
// since the traced paced phase began (its ramp included). Client spans (txn, read, commit) are
// identified by the client's transaction index; handler spans by the
// protocol's transaction id when the message carries exactly one. A
// span's children are the spans inside its interval that it caused; its
// self time is its duration minus what they cover.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Note     string      `json:"note"`
	Spans    []traceSpan `json:"spans"`
}

type traceSpan struct {
	Name  string  `json:"name"`
	Node  string  `json:"node"`
	Start float64 `json:"start_us"`
	End   float64 `json:"end_us"`
	Cause string  `json:"cause,omitempty"`
	Txn   string  `json:"txn,omitempty"`
}

// maxTraceSpans caps the file (the aggregates use every span).
const maxTraceSpans = 60000

func (t *tracer) write(dir string, s spec, seed int64, client pacedResult) (string, error) {
	origin := int64(client.begin.Sub(t.epoch))
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	out := traceFile{Workload: s.name, Seed: seed,
		Note: "handler spans: name=<layer>.<MsgType>, cause=sending node; client spans: client.txn/read/commit, txn=#<index>"}
	for _, sp := range t.spans {
		start := sp.start - origin
		out.Spans = append(out.Spans, traceSpan{
			Name: roleNames[roleOf(sp.node)] + "." + msgTypeNames[sp.typ], Node: string(sp.node),
			Start: us(start), End: us(start + sp.dur), Cause: string(sp.from), Txn: sp.tx,
		})
	}
	for i, due := range client.dueNs {
		id := "#" + strconv.Itoa(i)
		end := due + client.latNs[i]
		commitStart := end - client.commitNs[i]
		out.Spans = append(out.Spans, traceSpan{Name: "client.txn", Node: "client", Start: us(due), End: us(end), Txn: id})
		if !s.commute {
			readStart := commitStart - client.readNs[i]
			out.Spans = append(out.Spans, traceSpan{Name: "client.read", Node: "client", Start: us(readStart), End: us(commitStart), Cause: "client.txn", Txn: id})
		}
		out.Spans = append(out.Spans, traceSpan{Name: "client.commit", Node: "client", Start: us(commitStart), End: us(end), Cause: "client.txn", Txn: id})
	}
	sort.SliceStable(out.Spans, func(i, j int) bool { return out.Spans[i].Start < out.Spans[j].Start })
	if len(out.Spans) > maxTraceSpans {
		out.Spans = out.Spans[:maxTraceSpans]
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+s.name+".json")
	blob, err := json.Marshal(out)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, blob, 0o644)
}
