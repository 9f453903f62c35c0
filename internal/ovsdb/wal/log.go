package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Fsync policies for committed records.
const (
	// FsyncCommit (the default) makes Append's ticket resolve only after
	// the record is fsynced. Concurrent commits share one fsync (group
	// commit): the appender drains every queued record, writes them with
	// a single Write, syncs once, and acknowledges the whole batch.
	FsyncCommit = "commit"
	// FsyncOff acknowledges records once they are written to the OS; a
	// machine crash can lose the unsynced suffix (a process crash cannot).
	// Snapshots and rotations are always fsynced regardless of policy.
	FsyncOff = "off"
)

// Options configures a log.
type Options struct {
	// Dir holds the segment and snapshot files; created if absent.
	Dir string
	// Fsync is FsyncCommit (default) or FsyncOff.
	Fsync string
	// SnapshotEvery is the number of appended records between snapshot
	// compactions (default 8192; negative disables automatic snapshots).
	SnapshotEvery int
	// Obs receives ovsdb_wal_* metrics and wal.* flight-recorder events;
	// nil disables all instrumentation.
	Obs *obs.Observer

	// staleAfter, when positive, replaces snapshotStaleAfter (tests).
	staleAfter time.Duration
}

// snapshotStaleAfter is the last-snapshot age beyond which the log
// surfaces a staleness line in the observer's healthy /readyz detail.
// The ovsdb_wal_last_snapshot_age_seconds gauge reports the age
// regardless.
const snapshotStaleAfter = 15 * time.Minute

// Recovered is the state reconstructed by Open.
type Recovered struct {
	// Snapshot is the newest durable snapshot (empty, txn 0, when the
	// directory holds none). Tail records apply on top of it.
	Snapshot *Snapshot
	// Tail holds the log records with txn > Snapshot.Txn, in commit
	// order. The caller replays them to reach the final state and to
	// seed its monitor gap-replay window.
	Tail []*Record
	// LastTxn is the highest transaction ID in the recovered state; the
	// database seeds its txn counter from it so IDs stay monotonic
	// across restarts.
	LastTxn uint64
	// Truncated reports that a torn or corrupt tail was dropped from the
	// final segment (the expected aftermath of a crash mid-write).
	Truncated bool
	// DroppedBytes counts the bytes discarded with that tail.
	DroppedBytes int
}

const (
	segPrefix  = "seg-"
	segSuffix  = ".wal"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	tmpSuffix  = ".tmp"
)

func segName(start uint64) string { return fmt.Sprintf("%s%016x%s", segPrefix, start, segSuffix) }
func snapName(txn uint64) string  { return fmt.Sprintf("%s%016x%s", snapPrefix, txn, snapSuffix) }
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 16, 64)
	return n, err == nil
}

// item is one unit of ordered appender work: a framed record awaiting
// write+fsync, or a snapshot job captured at a rotation point.
type item struct {
	frame []byte
	txn   uint64
	done  chan error
	// snap, when non-nil, marks a snapshot job: rotate the segment at
	// this point in the order, then compact in the background. The
	// closure renders the database image captured at enqueue time.
	snap func() (*Snapshot, error)
}

// Log is an open write-ahead log. Appends are acknowledged through
// tickets so the database can release its commit lock before waiting
// out the group fsync; a single appender goroutine preserves commit
// order on disk.
type Log struct {
	opts Options
	dir  *os.File // held open for directory fsyncs

	mu       sync.Mutex
	queue    []item
	wake     chan struct{}
	closing  bool
	failErr  error // latched first write/sync error; fails all later appends
	appended int   // records since the last snapshot trigger
	snapBusy bool  // a snapshot is queued or compacting
	lastTxn  uint64

	seg      *os.File
	segStart uint64
	wbuf     []byte

	stopped chan struct{}
	snapWG  sync.WaitGroup

	// snapAnchor is when the durable image was last refreshed (unix
	// nanos): the newest snapshot file's mtime at recovery, open time
	// when the directory held none, then each compaction's completion.
	// ovsdb_wal_last_snapshot_age_seconds derives from it at scrape time.
	snapAnchor atomic.Int64

	rec           *obs.Recorder
	mAppends      *obs.Counter
	mAppendBytes  *obs.Counter
	mFsyncs       *obs.Counter
	mFsyncSeconds *obs.Histogram
	mSnapshots    *obs.Counter
	mSnapSeconds  *obs.Histogram
	mErrors       *obs.Counter
}

// Open recovers the directory's durable state and opens the log for
// appending. The returned Recovered carries the newest snapshot, the
// replayable tail, and the last transaction ID; the caller restores its
// database from it before appending new records.
func Open(opts Options) (*Log, *Recovered, error) {
	if opts.Fsync == "" {
		opts.Fsync = FsyncCommit
	}
	if opts.Fsync != FsyncCommit && opts.Fsync != FsyncOff {
		return nil, nil, fmt.Errorf("wal: unknown fsync policy %q", opts.Fsync)
	}
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = 8192
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	l := &Log{
		opts:    opts,
		wake:    make(chan struct{}, 1),
		stopped: make(chan struct{}),
	}
	reg := opts.Obs.Reg()
	l.rec = opts.Obs.Rec()
	l.mAppends = reg.Counter("ovsdb_wal_appends_total", "WAL records appended.")
	l.mAppendBytes = reg.Counter("ovsdb_wal_append_bytes_total", "WAL bytes appended (framed records).")
	l.mFsyncs = reg.Counter("ovsdb_wal_fsyncs_total", "WAL segment fsync calls (group commits).")
	l.mFsyncSeconds = reg.Histogram("ovsdb_wal_fsync_seconds", "WAL group-commit fsync latency.", nil)
	l.mSnapshots = reg.Counter("ovsdb_wal_snapshots_total", "WAL snapshot compactions completed.")
	l.mSnapSeconds = reg.Histogram("ovsdb_wal_snapshot_seconds", "WAL snapshot compaction latency.", nil)
	l.mErrors = reg.Counter("ovsdb_wal_errors_total", "WAL write, fsync, or compaction failures.")

	start := time.Now()
	recovered, err := l.recover()
	if err != nil {
		return nil, nil, err
	}
	dir, err := os.Open(opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	l.dir = dir
	l.lastTxn = recovered.LastTxn
	l.snapAnchor.Store(l.recoveredSnapshotTime(recovered).UnixNano())
	reg.Gauge("ovsdb_wal_recovery_duration_seconds",
		"How long the last startup recovery (snapshot load plus tail replay) took.").
		Set(time.Since(start).Seconds())
	reg.GaugeFunc("ovsdb_wal_last_snapshot_age_seconds",
		"Seconds since the durable image was last compacted into a snapshot (since open when none exists yet).",
		func() float64 { return time.Since(time.Unix(0, l.snapAnchor.Load())).Seconds() })
	staleAfter := snapshotStaleAfter
	if opts.staleAfter > 0 {
		staleAfter = opts.staleAfter
	}
	opts.Obs.AddReadyDetail(func() string {
		age := time.Since(time.Unix(0, l.snapAnchor.Load()))
		if age <= staleAfter {
			return ""
		}
		return fmt.Sprintf("wal: last snapshot %s old (stale after %s)",
			age.Round(time.Second), staleAfter)
	})
	go l.run()
	l.rec.Append(obs.Ev("ovsdb", "wal.recover").
		F("last_txn", int64(recovered.LastTxn)).
		F("tail_records", int64(len(recovered.Tail))).
		F("dropped_bytes", int64(recovered.DroppedBytes)).
		F("recover_us", time.Since(start).Microseconds()))
	return l, recovered, nil
}

// recoveredSnapshotTime anchors snapshot freshness at open: the newest
// snapshot file's mtime, or now when the directory holds none (a fresh
// log's "image" is as old as the log itself).
func (l *Log) recoveredSnapshotTime(recovered *Recovered) time.Time {
	if recovered.Snapshot != nil && recovered.Snapshot.Txn != 0 {
		if fi, err := os.Stat(filepath.Join(l.opts.Dir, snapName(recovered.Snapshot.Txn))); err == nil {
			return fi.ModTime()
		}
	}
	return time.Now()
}

// recover loads the newest valid snapshot, replays every later record,
// truncates a torn tail, and leaves the last segment open for appending.
func (l *Log) recover() (*Recovered, error) {
	entries, err := os.ReadDir(l.opts.Dir)
	if err != nil {
		return nil, err
	}
	var snaps, segs []uint64
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, tmpSuffix) {
			os.Remove(filepath.Join(l.opts.Dir, name)) // interrupted snapshot write
			continue
		}
		if n, ok := parseSeq(name, snapPrefix, snapSuffix); ok {
			snaps = append(snaps, n)
		} else if n, ok := parseSeq(name, segPrefix, segSuffix); ok {
			segs = append(segs, n)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] > snaps[j] })
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })

	// Newest validating snapshot wins. Falling back past an unreadable
	// snapshot is only safe while the segments covering it still exist
	// (the window before compaction deletes them), so a fallback is
	// cross-checked against segment coverage below.
	recoveredSnap := &Snapshot{Tables: make(map[string]map[string]json.RawMessage)}
	snapFellBack := false
	for _, txn := range snaps {
		data, err := os.ReadFile(filepath.Join(l.opts.Dir, snapName(txn)))
		if err != nil {
			snapFellBack = true
			continue
		}
		s, err := decodeSnapshot(data)
		if err != nil || s.Txn != txn {
			snapFellBack = true
			continue
		}
		recoveredSnap = s
		break
	}
	if snapFellBack {
		// The newest snapshot exists but failed validation. Once its
		// compaction has deleted the segments it superseded, the fallback
		// (an older snapshot, or the empty zero state) plus the surviving
		// segments no longer reproduce the database — recovering anyway
		// would silently discard nearly all committed state while
		// reporting success. Only accept the fallback when the oldest
		// surviving segment starts at or before the transaction right
		// after it, i.e. replay from the fallback has no hole.
		if len(segs) == 0 || segs[0] > recoveredSnap.Txn+1 {
			oldest := uint64(0)
			if len(segs) > 0 {
				oldest = segs[0]
			}
			return nil, fmt.Errorf("%w: newest snapshot unreadable and surviving segments (oldest start %d) do not cover fallback snapshot txn %d; refusing to recover with silent data loss",
				ErrCorrupt, oldest, recoveredSnap.Txn)
		}
	}

	rec := &Recovered{Snapshot: recoveredSnap, LastTxn: recoveredSnap.Txn}
	for i, start := range segs {
		path := filepath.Join(l.opts.Dir, segName(start))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		off := 0
		for off < len(data) {
			r, n, derr := DecodeRecord(data[off:])
			if derr != nil {
				if i != len(segs)-1 {
					// A hole in the middle of the chain is real corruption,
					// not a torn final write: refuse to silently lose it.
					return nil, fmt.Errorf("wal: segment %s corrupt at offset %d: %w", path, off, derr)
				}
				rec.Truncated = true
				rec.DroppedBytes = len(data) - off
				if terr := os.Truncate(path, int64(off)); terr != nil {
					return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, terr)
				}
				break
			}
			off += n
			if r.Txn <= rec.LastTxn {
				continue // covered by the snapshot (or a duplicate)
			}
			rec.Tail = append(rec.Tail, r)
			rec.LastTxn = r.Txn
		}
	}

	// Continue appending to the last segment, or start the chain.
	segStart := rec.LastTxn + 1
	if len(segs) > 0 {
		segStart = segs[len(segs)-1]
	}
	f, err := os.OpenFile(filepath.Join(l.opts.Dir, segName(segStart)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l.seg = f
	l.segStart = segStart
	return rec, nil
}

// Append enqueues one record, in call order, for durable write. It is
// the caller's job to call Append in commit order (the database does so
// under its commit lock). The returned ticket resolves once the record
// reaches the configured durability (written + group-fsynced under
// FsyncCommit); wantSnapshot asks the caller to capture a database
// image and pass it to CompactAsync — returned at most once per
// SnapshotEvery records and never while a compaction is in flight.
func (l *Log) Append(rec *Record) (ticket <-chan error, wantSnapshot bool) {
	frame, err := AppendRecord(nil, rec)
	done := make(chan error, 1)
	l.mu.Lock()
	if l.failErr != nil || l.closing {
		ferr := l.failErr
		l.mu.Unlock()
		if ferr == nil {
			ferr = errors.New("wal: log closed")
		}
		done <- ferr
		return done, false
	}
	if err != nil {
		l.mu.Unlock()
		done <- err
		return done, false
	}
	if rec.Txn <= l.lastTxn {
		l.mu.Unlock()
		done <- fmt.Errorf("wal: non-monotonic append: txn %d after %d", rec.Txn, l.lastTxn)
		return done, false
	}
	l.lastTxn = rec.Txn
	l.queue = append(l.queue, item{frame: frame, txn: rec.Txn, done: done})
	l.appended++
	if l.opts.SnapshotEvery > 0 && l.appended >= l.opts.SnapshotEvery && !l.snapBusy {
		l.appended = 0
		l.snapBusy = true
		wantSnapshot = true
	}
	l.mu.Unlock()
	select {
	case l.wake <- struct{}{}:
	default:
	}
	return done, wantSnapshot
}

// CompactAsync enqueues a snapshot compaction at the current point in
// the append order. render runs on the appender (off the commit path)
// and must return the database image as of the moment Append returned
// wantSnapshot — the database guarantees this by capturing a shallow
// copy of its copy-on-write tables under the same lock as that Append.
func (l *Log) CompactAsync(render func() (*Snapshot, error)) {
	l.mu.Lock()
	if l.failErr != nil || l.closing {
		l.snapBusy = false
		l.mu.Unlock()
		return
	}
	l.queue = append(l.queue, item{snap: render})
	l.mu.Unlock()
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// Err returns the latched failure, if any. A failed log stops accepting
// appends; the database keeps serving from memory but reports itself
// degraded.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failErr
}

// Close drains queued records, waits for any in-flight compaction, and
// closes the files.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closing {
		l.mu.Unlock()
		<-l.stopped
		return l.Err()
	}
	l.closing = true
	l.mu.Unlock()
	select {
	case l.wake <- struct{}{}:
	default:
	}
	<-l.stopped
	l.snapWG.Wait()
	err := l.Err()
	if l.seg != nil {
		l.seg.Close()
	}
	if l.dir != nil {
		l.dir.Close()
	}
	return err
}

// fail latches err, failing the given batch and all future appends.
func (l *Log) fail(err error, batch []item) {
	l.mErrors.Inc()
	l.mu.Lock()
	if l.failErr == nil {
		l.failErr = err
	}
	pending := l.queue
	l.queue = nil
	l.mu.Unlock()
	for _, it := range append(batch, pending...) {
		if it.done != nil {
			it.done <- err
		}
	}
}

// run is the appender: it drains the queue in order, group-writes and
// group-fsyncs record batches, and hands snapshot jobs to the compactor
// after rotating the active segment.
func (l *Log) run() {
	defer close(l.stopped)
	for {
		l.mu.Lock()
		for len(l.queue) == 0 {
			if l.closing || l.failErr != nil {
				l.mu.Unlock()
				if l.seg != nil && l.opts.Fsync == FsyncCommit {
					l.seg.Sync()
				}
				return
			}
			l.mu.Unlock()
			<-l.wake
			l.mu.Lock()
		}
		batch := l.queue
		l.queue = nil
		l.mu.Unlock()

		// Write maximal runs of records with one Write + one fsync, and
		// handle snapshot jobs at their exact position in the order.
		var run []item
		flush := func() bool {
			if len(run) == 0 {
				return true
			}
			l.wbuf = l.wbuf[:0]
			for _, it := range run {
				l.wbuf = append(l.wbuf, it.frame...)
			}
			if _, err := l.seg.Write(l.wbuf); err != nil {
				l.fail(fmt.Errorf("wal: write: %w", err), run)
				return false
			}
			if l.opts.Fsync == FsyncCommit {
				s := time.Now()
				if err := l.seg.Sync(); err != nil {
					l.fail(fmt.Errorf("wal: fsync: %w", err), run)
					return false
				}
				l.mFsyncs.Inc()
				l.mFsyncSeconds.ObserveDuration(time.Since(s))
			}
			l.mAppends.Add(uint64(len(run)))
			l.mAppendBytes.Add(uint64(len(l.wbuf)))
			l.rec.Append(obs.Ev("ovsdb", "wal.append").Debug().
				F("records", int64(len(run))).
				F("bytes", int64(len(l.wbuf))))
			for _, it := range run {
				it.done <- nil
			}
			run = run[:0]
			return true
		}
		ok := true
		for i := 0; i < len(batch); i++ {
			it := batch[i]
			if it.snap == nil {
				run = append(run, it)
				continue
			}
			if ok = flush(); ok {
				ok = l.rotateAndCompact(it.snap)
			}
			if !ok {
				// flush/rotate latched the failure and resolved the
				// current run plus l.queue — but not the rest of this
				// drained batch. Fail those tickets too, or their
				// Transact callers block forever on a dead log.
				err := l.Err()
				for _, rest := range batch[i+1:] {
					if rest.done != nil {
						rest.done <- err
					}
				}
				break
			}
		}
		if ok {
			flush()
		}
	}
}

// rotateAndCompact seals the active segment at the current position,
// opens the next one, and compacts in the background: records appended
// after the rotation land in the new segment, so the snapshot plus that
// segment always reproduce the database.
func (l *Log) rotateAndCompact(render func() (*Snapshot, error)) bool {
	// Everything up to the snapshot point must be durable before any
	// compaction may delete the segments that used to carry it.
	if err := l.seg.Sync(); err != nil {
		l.fail(fmt.Errorf("wal: fsync before rotation: %w", err), nil)
		return false
	}
	l.mu.Lock()
	nextStart := l.lastTxn + 1
	l.mu.Unlock()
	f, err := os.OpenFile(filepath.Join(l.opts.Dir, segName(nextStart)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		l.fail(fmt.Errorf("wal: rotating segment: %w", err), nil)
		return false
	}
	if err := l.dir.Sync(); err != nil {
		l.fail(fmt.Errorf("wal: fsync dir: %w", err), nil)
		f.Close()
		return false
	}
	old := l.seg
	oldStart := l.segStart
	l.seg = f
	l.segStart = nextStart
	old.Close()

	l.snapWG.Add(1)
	go func() {
		defer l.snapWG.Done()
		start := time.Now()
		err := l.writeSnapshot(render, oldStart)
		l.mu.Lock()
		l.snapBusy = false
		l.mu.Unlock()
		if err != nil {
			// A failed compaction loses no data: the previous snapshot
			// and the intact segment chain still cover everything. Count
			// it and retry at the next trigger.
			l.mErrors.Inc()
			l.rec.Append(obs.Ev("ovsdb", "wal.snapshot").
				F("failed", 1).
				F("elapsed_us", time.Since(start).Microseconds()))
			return
		}
		l.mSnapshots.Inc()
		l.mSnapSeconds.ObserveDuration(time.Since(start))
	}()
	return true
}

// writeSnapshot renders and durably writes the snapshot, then deletes
// the segments and snapshots it supersedes.
func (l *Log) writeSnapshot(render func() (*Snapshot, error), coveredStart uint64) error {
	snap, err := render()
	if err != nil {
		return err
	}
	data, err := encodeSnapshot(snap)
	if err != nil {
		return err
	}
	final := filepath.Join(l.opts.Dir, snapName(snap.Txn))
	tmp := final + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	if err := l.dir.Sync(); err != nil {
		return err
	}
	// The snapshot is durable: truncate the log by deleting every
	// segment that started at or before it, and retire older snapshots.
	entries, err := os.ReadDir(l.opts.Dir)
	if err != nil {
		return err
	}
	removedSegs := 0
	for _, e := range entries {
		name := e.Name()
		if n, ok := parseSeq(name, segPrefix, segSuffix); ok && n <= coveredStart {
			if os.Remove(filepath.Join(l.opts.Dir, name)) == nil {
				removedSegs++
			}
		}
		if n, ok := parseSeq(name, snapPrefix, snapSuffix); ok && n < snap.Txn {
			os.Remove(filepath.Join(l.opts.Dir, name))
		}
	}
	l.snapAnchor.Store(time.Now().UnixNano())
	l.rec.Append(obs.Ev("ovsdb", "wal.snapshot").
		F("txn", int64(snap.Txn)).
		F("bytes", int64(len(data))).
		F("segments_removed", int64(removedSegs)))
	return nil
}
