package storage

// Append-only write-ahead log with group commit. Under the "always" fsync
// policy, concurrent appenders stage records into a shared buffer and then
// wait for durability; the first waiter to find no sync in flight becomes
// the batch leader, flushes and fsyncs everything staged so far with the
// lock released, and wakes the whole batch. One fsync is amortized across
// every appender that arrived while the previous one was on the platter —
// the classic group-commit trade that keeps fsync-per-ack throughput within
// a small factor of fsync-never. "interval" syncs on a background ticker
// (same 100ms cadence as the hint log) and "never" leaves persistence to
// the OS page cache.

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sync"
	"time"
)

// Fsync policies, sharing the hint log's vocabulary (-hint-fsync).
const (
	FsyncAlways   = "always"
	FsyncInterval = "interval"
	FsyncNever    = "never"
)

// walSyncInterval paces the background fsync under FsyncInterval.
const walSyncInterval = 100 * time.Millisecond

// maxCommitNap caps the group-commit gathering window (see syncBatchLocked).
const maxCommitNap = 2 * time.Millisecond

// ValidPolicy reports whether s names a known fsync policy.
func ValidPolicy(s string) bool {
	return s == FsyncAlways || s == FsyncInterval || s == FsyncNever
}

// walToken identifies a staged record for commit waiting.
type walToken struct {
	n      int64 // staging sequence number (monotonic across segments)
	failed bool  // staging failed; nothing to wait for
}

type wal struct {
	policy string

	mu   sync.Mutex
	cond *sync.Cond
	f    *os.File
	bw   *bufio.Writer
	path string

	appended int64   // records staged (monotonic across rotations)
	durable  int64   // highest staged count known fsynced
	syncing  bool    // a batch leader holds the platter
	lastErr  error   // last flush/sync failure (cleared on success)
	syncEWMA float64 // smoothed fsync duration (seconds), sizes the commit nap

	// batchEst is the number of records a napping leader expects to
	// gather: a decaying maximum of recent napped batch sizes (0 until the
	// first nap, which runs in full). The nap ends early once that many
	// records are staged: the stage that reaches napTarget (0 = no nap in
	// progress) signals napWake. napTimer bounds the nap; the timer and the
	// channel are reused across batches, so a nap allocates nothing.
	batchEst  float64
	napTarget int64
	napWake   chan struct{}
	napTimer  *time.Timer

	appends int64 // records appended
	syncs   int64 // fsync calls issued (appends/syncs = group size)
	errs    int64 // staging, flush or sync failures

	stop chan struct{}
	done chan struct{}
}

func openWAL(path, policy string) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open wal: %w", err)
	}
	w := &wal{
		policy:  policy,
		f:       f,
		bw:      bufio.NewWriter(f),
		path:    path,
		napWake: make(chan struct{}, 1),
	}
	w.cond = sync.NewCond(&w.mu)
	if policy == FsyncInterval {
		w.stop = make(chan struct{})
		w.done = make(chan struct{})
		go w.runIntervalSync()
	}
	return w, nil
}

// stage buffers one framed record. Under FsyncAlways the caller must pass
// the returned token to commit (outside any engine lock) before acking;
// other policies flush to the OS immediately and commit is a no-op.
func (w *wal) stage(frame []byte) walToken {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		w.errs++
		return walToken{failed: true}
	}
	if _, err := w.bw.Write(frame); err != nil {
		w.errs++
		w.lastErr = err
		return walToken{failed: true}
	}
	w.appends++
	w.appended++
	if w.napTarget > 0 && w.appended >= w.napTarget {
		w.napTarget = 0
		w.napWake <- struct{}{}
	}
	if w.policy != FsyncAlways {
		if err := w.bw.Flush(); err != nil {
			w.errs++
			w.lastErr = err
		}
	}
	return walToken{n: w.appended}
}

// commit blocks until the staged record is durable per the policy. Under
// FsyncAlways the first waiter per batch becomes the leader: it flushes and
// fsyncs everything staged so far with the lock released, then wakes the
// batch. Failed batches still advance the durable watermark — the engine
// stays available and surfaces the error through counters, the same stance
// the hint log takes on append failures.
func (w *wal) commit(t walToken) error {
	if w.policy != FsyncAlways {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if t.failed {
		return w.lastErr
	}
	for w.durable < t.n {
		if w.f == nil {
			return w.lastErr
		}
		if w.syncing {
			w.cond.Wait()
			continue
		}
		w.syncBatchLocked()
	}
	return w.lastErr
}

// syncBatchLocked gathers and fsyncs one commit batch, releasing the lock
// for the wait and the fsync itself. Callers must hold w.mu with syncing
// false.
//
// The leader first naps for about one smoothed fsync duration before
// flushing — the adaptive commit window. Batching only from records that
// happen to be staged already works when appenders outrun the platter, but
// on a slow- or CPU-expensive-fsync host the arrival rate is itself capped
// by the fsync churn and the batch size degenerates to one; napping one
// fsync-worth of time lets concurrent appenders stage into the batch,
// trading at most 2x commit latency for a multiplied batch (and on a
// fast-fsync host the nap is measured in microseconds and invisible).
//
// The nap ends early once a batch as large as recent ones has staged: a
// closed loop of appenders re-stages about one batch per commit, so once
// that batch is in, napping on only idles the platter and delays every
// appender in it. Waking on the count rather than polling for a lull also
// keeps a steady trickle of arrivals from stretching the nap to its cap.
func (w *wal) syncBatchLocked() {
	w.syncing = true
	nap := time.Duration(w.syncEWMA * float64(time.Second))
	if nap > 0 {
		if nap > maxCommitNap {
			nap = maxCommitNap
		}
		target := int64(math.MaxInt64)
		if w.batchEst > 0 {
			target = w.durable + int64(math.Ceil(w.batchEst))
		}
		if w.appended < target {
			w.napTarget = target
			if w.napTimer == nil {
				w.napTimer = time.NewTimer(nap)
			} else {
				w.napTimer.Reset(nap)
			}
			w.mu.Unlock()
			select {
			case <-w.napWake:
			case <-w.napTimer.C:
			}
			w.napTimer.Stop()
			w.mu.Lock()
			if w.napTarget == 0 {
				// A stage reached the target as the timer fired: consume
				// its wake so the next nap does not end at once.
				select {
				case <-w.napWake:
				default:
				}
			}
			w.napTarget = 0
		}
	}
	batch := w.appended
	if nap > 0 {
		w.batchEst = max(float64(batch-w.durable), 0.9*w.batchEst)
	}
	err := w.bw.Flush()
	f := w.f
	w.mu.Unlock()
	start := time.Now()
	var serr error
	if f != nil {
		serr = f.Sync()
	}
	took := time.Since(start).Seconds()
	if err == nil {
		err = serr
	}
	w.mu.Lock()
	if w.syncEWMA == 0 {
		w.syncEWMA = took
	} else {
		w.syncEWMA += 0.25 * (took - w.syncEWMA)
	}
	w.syncing = false
	w.syncs++
	if batch > w.durable {
		w.durable = batch
	}
	if err != nil {
		w.errs++
		w.lastErr = err
	} else {
		w.lastErr = nil
	}
	w.cond.Broadcast()
}

func (w *wal) runIntervalSync() {
	defer close(w.done)
	t := time.NewTicker(walSyncInterval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.mu.Lock()
			if w.f != nil && !w.syncing {
				if err := w.bw.Flush(); err == nil {
					err = w.f.Sync()
					w.syncs++
					if err != nil {
						w.errs++
						w.lastErr = err
					}
				} else {
					w.errs++
					w.lastErr = err
				}
			}
			w.mu.Unlock()
		}
	}
}

// rotate makes the current segment fully durable, switches appends to a
// fresh segment at newPath, and returns the old segment's path (now frozen:
// its contents are exactly the frozen memtable being flushed).
func (w *wal) rotate(newPath string) (oldPath string, err error) {
	f, err := os.OpenFile(newPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return "", fmt.Errorf("storage: rotate wal: %w", err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.syncing {
		w.cond.Wait()
	}
	if ferr := w.bw.Flush(); ferr != nil {
		w.errs++
		w.lastErr = ferr
	}
	if w.policy != FsyncNever {
		if serr := w.f.Sync(); serr != nil {
			w.errs++
			w.lastErr = serr
		}
	}
	old := w.path
	w.f.Close()
	w.f = f
	w.bw.Reset(f)
	w.path = newPath
	// Everything staged so far lives in the old, now-synced segment; release
	// any commit waiters from the previous batch window.
	w.durable = w.appended
	w.cond.Broadcast()
	return old, nil
}

// close flushes and (policy permitting) fsyncs outstanding records, then
// closes the segment. Commit waiters are released.
func (w *wal) close() error {
	if w.stop != nil {
		close(w.stop)
		<-w.done
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.syncing {
		w.cond.Wait()
	}
	if w.f == nil {
		return nil
	}
	err := w.bw.Flush()
	if w.policy != FsyncNever {
		if serr := w.f.Sync(); err == nil {
			err = serr
		}
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	w.durable = w.appended
	w.cond.Broadcast()
	return err
}

// metrics returns append/sync/error counters.
func (w *wal) metrics() (appends, syncs, errs int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appends, w.syncs, w.errs
}
