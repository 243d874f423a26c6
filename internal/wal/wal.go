// Package wal implements a write-ahead log: an append-only sequence of
// length-prefixed, CRC32-checksummed records in segment files. Storage
// nodes log learned options and executed updates through it so a node
// restart replays to the pre-crash state (the durability role BDB's
// own log plays in the paper's prototype).
//
// Record framing:
//
//	uint32 length | uint32 crc32(length‖payload) | payload bytes
//
// The CRC covers the length prefix so an all-zero frame (zeroed
// garbage after a crash) can never parse as a valid empty record.
// Torn tails (partial final record after a crash) are detected by
// length/CRC mismatch and truncated on open.
//
// Durability modes: by default every Append fsyncs before returning.
// With Options.GroupCommit concurrent appenders coalesce into one
// fsync (leader/follower batching: the first appender of a batch runs
// the sync, everyone who wrote while it was in flight rides the next
// one), each Append still returning only once its record is durable.
// Options.NoSync drops fsync entirely for harnesses that model
// durability instead of paying for it. A failed fsync poisons the log
// (fsyncgate semantics): the kernel may have dropped the dirty pages,
// so no later sync can retroactively make the lost writes durable —
// every subsequent Append fails with the original error until the log
// is reopened — and the records that sync covered are cut from the
// segment, so a reopen never replays a record whose Append returned an
// error (a torn write's partial frame is left for the reopen to drop).
//
// Checkpoint support: Cut() seals the active segment so a snapshot can
// name "everything below segment N", TruncateBefore(n) deletes sealed
// segments once a snapshot covers them, and ReplayFrom(n) replays only
// the tail a snapshot does not cover. Options.Faults injects disk
// faults (sync failure, torn write, bit flip)
// under all of it for crash-recovery testing.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

const (
	headerSize = 8
	segPrefix  = "wal-"
	segSuffix  = ".seg"
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// ErrCorrupt is returned when a record fails its CRC in the middle of
// a segment (a torn tail is silently truncated instead).
var ErrCorrupt = errors.New("wal: corrupt record")

// ErrFormat marks a record that is intact (its CRC holds) but whose
// payload is not in the format this build reads — above all a data
// directory written by a build that serialized with encoding/gob.
// Unlike ErrCorrupt the bytes are what their writer meant, so there is
// no migration reader and nothing to repair: run the build that wrote
// the directory, or wipe it and let the replica rebuild from its
// quorum. Every payload this repository logs opens with a format byte
// in 0x80..0xF7, which no gob stream can start with (gob opens with a
// message length: one byte below 0x80, or a byte-count marker of 0xF8
// and up), so such a directory is refused on its first record, before
// anything is applied.
var ErrFormat = errors.New("wal: record not in this build's format")

// Body checks a record payload's leading format byte and returns the
// bytes after it, or an ErrFormat naming what was being read.
func Body(payload []byte, format byte, what string) ([]byte, error) {
	if len(payload) == 0 || payload[0] != format {
		return nil, fmt.Errorf("%w: %s does not open with format byte %#x", ErrFormat, what, format)
	}
	return payload[1:], nil
}

// ErrDiskFault marks an injected disk failure (see Faults). Callers
// must treat it exactly like a real I/O error: the append was not made
// durable and must not be acknowledged.
var ErrDiskFault = errors.New("wal: disk fault")

// frameCRC checksums the length prefix together with the payload, so
// zeroed garbage (length 0, crc 0) never validates as an empty record.
func frameCRC(lengthLE []byte, payload []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(lengthLE[:4]), crc32.IEEETable, payload)
}

// Options configures a Log.
type Options struct {
	// SegmentSize is the byte threshold after which appends roll over
	// to a new segment file. Zero means 4 MiB.
	SegmentSize int64
	// NoSync disables fsync after append (used by tests and by the
	// simulator harness where durability is modeled, not real).
	NoSync bool
	// GroupCommit coalesces concurrent appends into one fsync: the
	// first appender of a batch becomes the sync leader, appenders that
	// write while its fsync is in flight are acknowledged by the next
	// one. Each Append still returns only after a sync covering its
	// record. No effect under NoSync.
	GroupCommit bool
	// Faults, when non-nil, injects disk faults under this log (shared
	// between several logs to model one failing disk). See Faults.
	Faults *Faults
}

// Log is an append-only segmented log. Safe for concurrent use.
type Log struct {
	mu      sync.Mutex
	cond    *sync.Cond // broadcast when a group-commit sync batch drains
	dir     string
	opts    Options
	seg     *os.File
	segIdx  int
	segSize int64
	closed  bool
	failed  error // sticky first durability failure; cleared only by reopening
	synced  int64 // active segment bytes the last successful sync covers
	appends int64
	frame   []byte // reused frame build buffer

	// Group-commit state: appenders queue an ack channel in pending;
	// syncing is true while a leader goroutine owns the fsync.
	pending        []chan error
	syncing        bool
	nSyncs         int64
	nSyncedAppends int64
	maxBatch       int64
}

// Open opens (creating if necessary) a log in dir and truncates any
// torn tail in the newest segment. Only an invalid region that runs to
// end-of-file is a torn tail: a checksum-failing record with data
// after it is bit rot mid-segment and reported as ErrCorrupt —
// truncating there would silently drop the valid records behind it.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = 4 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts}
	l.cond = sync.NewCond(&l.mu)
	if len(segs) == 0 {
		if err := l.rollLocked(0); err != nil {
			return nil, err
		}
		return l, nil
	}
	last := segs[len(segs)-1]
	valid, err := validPrefixLen(filepath.Join(dir, segName(last)))
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, segName(last)), os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	l.seg = f
	l.segIdx = last
	l.segSize = valid
	l.synced = valid
	return l, nil
}

// Append writes one record and (unless NoSync) returns only once a
// sync covering it has completed. After any durability failure the log
// is poisoned: every later Append returns the original error until the
// log is reopened.
func (l *Log) Append(payload []byte) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.failed != nil {
		err := l.failed
		l.mu.Unlock()
		return err
	}
	// Roll only while no sync is in flight: the leader fsyncs l.seg
	// outside the lock, so the file must not be swapped under it
	// (segments may overshoot SegmentSize by one in-flight batch).
	if l.segSize >= l.opts.SegmentSize && !l.syncing && len(l.pending) == 0 {
		if err := l.rollLocked(l.segIdx + 1); err != nil {
			l.mu.Unlock()
			return err
		}
	}
	// Build the whole frame in one reused buffer: one write syscall,
	// and fault injection needs byte-level control over what reaches
	// the file.
	f := l.opts.Faults
	need := headerSize + len(payload)
	if cap(l.frame) < need {
		l.frame = make([]byte, need)
	}
	frame := l.frame[:need]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], frameCRC(frame[0:4], payload))
	copy(frame[headerSize:], payload)
	if f.takeFlip() && len(payload) > 0 {
		// The CRC above was computed on the clean payload, so the flip
		// is silent now and a typed ErrCorrupt on replay.
		frame[headerSize+len(payload)/2] ^= 0x10
	}
	if n, ok := f.takeTorn(); ok {
		// A torn write models the disk dying mid-frame: part of the
		// record reaches the file, the append fails, and the log is
		// poisoned exactly like a failed sync.
		if n > len(frame) {
			n = len(frame)
		}
		l.seg.Write(frame[:n])
		l.segSize += int64(n)
		l.failed = fmt.Errorf("wal: torn write (%d of %d bytes): %w", n, len(frame), ErrDiskFault)
		err := l.failed
		l.mu.Unlock()
		return err
	}
	if _, err := l.seg.Write(frame); err != nil {
		l.failed = fmt.Errorf("wal: append: %w", err)
		err = l.failed
		l.mu.Unlock()
		return err
	}
	l.segSize += int64(need)
	l.appends++
	switch {
	case l.opts.NoSync:
		// Durability is modeled, but faults still apply: a disk whose
		// syncs fail must refuse the append loudly even when the
		// harness never pays for real fsync.
		if f.failSyncNow() {
			err := l.refuseLocked(fmt.Errorf("wal: sync: %w", ErrDiskFault))
			l.mu.Unlock()
			return err
		}
		l.synced = l.segSize
		l.mu.Unlock()
		return nil
	case l.opts.GroupCommit:
		ch := make(chan error, 1)
		l.pending = append(l.pending, ch)
		if !l.syncing {
			l.syncing = true
			go l.syncLeader()
		}
		l.mu.Unlock()
		return <-ch
	default:
		err := l.syncLocked()
		l.mu.Unlock()
		return err
	}
}

// syncLocked runs the unbatched fsync path (mu held).
func (l *Log) syncLocked() error {
	f := l.opts.Faults
	var err error
	if f.failSyncNow() {
		err = fmt.Errorf("wal: sync: %w", ErrDiskFault)
	} else if serr := l.seg.Sync(); serr != nil {
		err = fmt.Errorf("wal: sync: %w", serr)
	}
	l.nSyncs++
	l.nSyncedAppends++
	if l.maxBatch < 1 {
		l.maxBatch = 1
	}
	if err != nil {
		return l.refuseLocked(err)
	}
	l.synced = l.segSize
	return nil
}

// refuseLocked poisons the log with a failed sync's error and cuts the
// active segment back to its synced length (mu held), so the records
// the sync covered — refused to their appenders — never replay. A cut
// that fails leaves them for the reopen to find; the log stays
// poisoned either way.
func (l *Log) refuseLocked(err error) error {
	l.failed = err
	if l.seg.Truncate(l.synced) == nil {
		l.segSize = l.synced
	}
	return err
}

// syncLeader is the group-commit leader: it snapshots the waiters that
// queued so far, fsyncs once for all of them, and hands the baton to a
// new leader if more appends arrived while its fsync was in flight.
func (l *Log) syncLeader() {
	l.mu.Lock()
	waiters := l.pending
	l.pending = nil
	seg, upto := l.seg, l.segSize
	f := l.opts.Faults
	l.mu.Unlock()

	var err error
	if f.failSyncNow() {
		err = fmt.Errorf("wal: sync: %w", ErrDiskFault)
	} else if serr := seg.Sync(); serr != nil {
		err = fmt.Errorf("wal: sync: %w", serr)
	}

	l.mu.Lock()
	l.nSyncs++
	l.nSyncedAppends += int64(len(waiters))
	if int64(len(waiters)) > l.maxBatch {
		l.maxBatch = int64(len(waiters))
	}
	if err != nil {
		// Poisoned: records queued behind the failed sync were never
		// made durable either; fail them all rather than pretend a
		// later fsync could cover them, and cut them all.
		l.refuseLocked(err)
		waiters = append(waiters, l.pending...)
		l.pending = nil
	} else {
		l.synced = upto
	}
	if len(l.pending) > 0 {
		go l.syncLeader()
	} else {
		l.syncing = false
		l.cond.Broadcast()
	}
	l.mu.Unlock()

	for _, ch := range waiters {
		ch <- err
	}
}

// drainSyncLocked blocks (mu held, via cond) until no group-commit
// sync is in flight.
func (l *Log) drainSyncLocked() {
	for l.syncing {
		l.cond.Wait()
	}
}

// Appends returns the number of records appended through this handle.
func (l *Log) Appends() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appends
}

// Stats is a point-in-time snapshot of the log's durability counters
// and on-disk footprint.
type Stats struct {
	Appends int64
	// Syncs counts fsync batches; SyncedAppends the appends they
	// covered (SyncedAppends/Syncs is the group-commit fan-in);
	// MaxBatch the largest single batch.
	Syncs         int64
	SyncedAppends int64
	MaxBatch      int64
	// Segments and LiveBytes are the on-disk footprint (what
	// TruncateBefore has not yet reclaimed).
	Segments  int
	LiveBytes int64
}

// Stats reports the log's counters and on-disk footprint.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	s := Stats{
		Appends:       l.appends,
		Syncs:         l.nSyncs,
		SyncedAppends: l.nSyncedAppends,
		MaxBatch:      l.maxBatch,
	}
	dir := l.dir
	l.mu.Unlock()
	if segs, err := listSegments(dir); err == nil {
		s.Segments = len(segs)
		for _, idx := range segs {
			if fi, err := os.Stat(filepath.Join(dir, segName(idx))); err == nil {
				s.LiveBytes += fi.Size()
			}
		}
	}
	return s
}

// ReplayFrom calls fn for every record in segments >= from, in log
// order — the bounded tail replay after recovering from a snapshot
// whose cut is from (0: the whole log). It must not be called
// concurrently with Append.
func (l *Log) ReplayFrom(from int, fn func(payload []byte) error) error {
	l.mu.Lock()
	l.drainSyncLocked()
	dir := l.dir
	l.mu.Unlock()
	segs, err := listSegments(dir)
	if err != nil {
		return err
	}
	for _, idx := range segs {
		if idx < from {
			continue
		}
		if err := replaySegment(filepath.Join(dir, segName(idx)), idx == segs[len(segs)-1], fn); err != nil {
			return err
		}
	}
	return nil
}

// Cut seals the active segment and starts a new one, returning the new
// active segment index: every record appended so far lives in segments
// below it. A snapshot taken after Cut covers exactly those segments,
// making TruncateBefore(cut-of-an-older-snapshot) safe. An empty
// active segment is reused as the cut.
func (l *Log) Cut() (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	l.drainSyncLocked()
	if l.closed {
		return 0, ErrClosed
	}
	if l.segSize == 0 {
		return l.segIdx, nil
	}
	if err := l.rollLocked(l.segIdx + 1); err != nil {
		return 0, err
	}
	return l.segIdx, nil
}

// TruncateBefore deletes sealed segments with index < seg (never the
// active one). Call it only once a durable snapshot covers them.
func (l *Log) TruncateBefore(seg int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	for _, idx := range segs {
		if idx >= seg || idx == l.segIdx {
			continue
		}
		if err := os.Remove(filepath.Join(l.dir, segName(idx))); err != nil {
			return fmt.Errorf("wal: truncate-before: %w", err)
		}
	}
	return nil
}

// Close syncs and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	l.drainSyncLocked()
	if l.seg == nil {
		return nil
	}
	if !l.opts.NoSync && l.failed == nil {
		if err := l.seg.Sync(); err != nil {
			l.seg.Close()
			return err
		}
	}
	return l.seg.Close()
}

func (l *Log) rollLocked(idx int) error {
	if l.seg != nil {
		if !l.opts.NoSync && l.failed == nil {
			if err := l.seg.Sync(); err != nil {
				return fmt.Errorf("wal: roll sync: %w", err)
			}
		}
		l.seg.Close()
	}
	f, err := os.OpenFile(filepath.Join(l.dir, segName(idx)), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: roll: %w", err)
	}
	l.seg = f
	l.segIdx = idx
	l.segSize = 0
	l.synced = 0
	return nil
}

func segName(idx int) string {
	return fmt.Sprintf("%s%08d%s", segPrefix, idx, segSuffix)
}

// Segments returns the segment indexes present in dir, ascending
// (exported for harnesses that corrupt segments on purpose).
func Segments(dir string) ([]int, error) {
	return listSegments(dir)
}

// SegmentPath returns the file path of segment idx in dir.
func SegmentPath(dir string, idx int) string {
	return filepath.Join(dir, segName(idx))
}

func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var out []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		numStr := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
		n, err := strconv.Atoi(numStr)
		if err != nil {
			continue
		}
		out = append(out, n)
	}
	sort.Ints(out)
	return out, nil
}

// validPrefixLen scans a segment and returns the byte length of the
// longest valid record prefix.
func validPrefixLen(path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	size := fi.Size()
	var off int64
	var hdr [headerSize]byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return off, nil // clean EOF or torn header
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		// A length beyond the file is a torn or garbage header — never
		// allocate on its say-so.
		if off+headerSize+int64(length) > size {
			return off, nil
		}
		buf := make([]byte, length)
		if _, err := io.ReadFull(f, buf); err != nil {
			return off, nil // torn payload
		}
		if frameCRC(hdr[0:4], buf) != want {
			// A complete frame with a bad checksum and data after it
			// cannot be a torn append (a tear only ever shortens the
			// file): it is bit rot mid-segment. Truncating here would
			// silently drop the valid records behind it, so surface the
			// typed corruption instead.
			if off+headerSize+int64(length) < size {
				return 0, fmt.Errorf("%w: bad crc mid-segment in %s", ErrCorrupt, path)
			}
			return off, nil // corrupt final record: torn tail
		}
		off += int64(headerSize) + int64(length)
	}
}

// replaySegment streams records of one segment into fn. For the final
// (active) segment a torn tail is tolerated; for older segments any
// corruption is an error.
func replaySegment(path string, tolerateTail bool, fn func([]byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	size := fi.Size()
	var off int64
	var hdr [headerSize]byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			if tolerateTail {
				return nil
			}
			return fmt.Errorf("%w: torn header in %s", ErrCorrupt, path)
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if off+headerSize+int64(length) > size {
			if tolerateTail {
				return nil
			}
			return fmt.Errorf("%w: oversized record length in %s", ErrCorrupt, path)
		}
		buf := make([]byte, length)
		if _, err := io.ReadFull(f, buf); err != nil {
			if tolerateTail {
				return nil
			}
			return fmt.Errorf("%w: torn payload in %s", ErrCorrupt, path)
		}
		if frameCRC(hdr[0:4], buf) != want {
			// Same rule as validPrefixLen: in the active segment only a
			// corrupt FINAL record is a tolerable torn tail; a bad
			// checksum with records behind it is mid-segment bit rot.
			if tolerateTail && off+headerSize+int64(length) == size {
				return nil
			}
			return fmt.Errorf("%w: bad crc in %s", ErrCorrupt, path)
		}
		off += headerSize + int64(length)
		if err := fn(buf); err != nil {
			return err
		}
	}
}
