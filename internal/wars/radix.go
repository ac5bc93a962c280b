package wars

import (
	"math"
	"slices"
	"sync"
)

// The engine's sample arrays are sorted in place by an MSD radix sort
// ("American flag" sort) on an order-preserving uint64 key of each float64,
// one 8-bit digit per level. Its scratch is two 256-entry tables per level,
// on the stack: nothing it allocates grows with the trial count. Many
// arrays sort together on a worker pool (sortParallel), which splits long
// ones by their leading digit so the pool stays busy.

// radixCutoff is the bucket length at or below which a bucket is finished by
// slices.Sort rather than split on its next digit.
const radixCutoff = 64

// floatKey maps a float64 to a uint64 whose unsigned order is the float
// order of sort.Float64s: NaNs first, then -Inf < … < -0 < +0 < … < +Inf.
// Flipping every bit of a negative value and only the sign bit of a
// non-negative one makes the IEEE 754 bit patterns compare as integers.
func floatKey(x float64) uint64 {
	if x != x {
		return 0
	}
	b := math.Float64bits(x)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// sortFloat64s sorts xs ascending in place, in the order of sort.Float64s.
func sortFloat64s(xs []float64) {
	radixSort(xs, 56)
}

// radixSort sorts xs, all of whose keys agree above bit shift+8, by the
// digit at shift and then, bucket by bucket, by the digits below it.
func radixSort(xs []float64, shift uint) {
	if len(xs) <= radixCutoff {
		slices.Sort(xs)
		return
	}
	tail, at, split := radixPartition(xs, shift)
	if !split || at == 0 {
		return
	}
	start := 0
	for _, end := range tail {
		if end-start > 1 {
			radixSort(xs[start:end], at-8)
		}
		start = end
	}
}

// radixPartition permutes xs, all of whose keys agree above bit shift+8,
// into buckets on the first digit at or below shift that tells them apart,
// and returns the buckets' ends and that digit's shift. split is false when
// no digit does: every key is equal and xs is already sorted.
func radixPartition(xs []float64, shift uint) (tail [256]int, at uint, split bool) {
	for {
		tail = [256]int{}
		for _, x := range xs {
			tail[byte(floatKey(x)>>shift)]++
		}
		// One bucket holding everything: this digit sorts nothing.
		if tail[byte(floatKey(xs[0])>>shift)] != len(xs) {
			break
		}
		if shift == 0 {
			return tail, 0, false
		}
		shift -= 8
	}
	var head [256]int
	sum := 0
	for d, c := range tail {
		head[d] = sum
		sum += c
		tail[d] = sum
	}
	// Cycle each misplaced element into the next free slot of its bucket;
	// head[d] advances until bucket d is full.
	for d := range head {
		for head[d] < tail[d] {
			x := xs[head[d]]
			for b := byte(floatKey(x) >> shift); int(b) != d; b = byte(floatKey(x) >> shift) {
				xs[head[b]], x = x, xs[head[b]]
				head[b]++
			}
			xs[head[d]] = x
			head[d]++
		}
	}
	return tail, shift, true
}

// splitLen is the length above which sortParallel partitions an array (or
// bucket) and queues its buckets as tasks of their own instead of sorting
// it in one piece; a bucket of at most splitLen/16 is sorted at once by
// the worker that partitioned it, which keeps the queue to a few thousand
// tasks for a million values.
const splitLen = 1 << 14

// sortTask is one array or bucket to sort: all of its keys agree above bit
// shift+8.
type sortTask struct {
	xs    []float64
	shift uint
}

// sortQueue is sortParallel's shared work: tasks in the order they were
// queued, and the count of tasks queued or running, so idle workers wait
// while a running task may still queue more. First in, first out hands
// out every array before any bucket and a bucket before its own buckets,
// so the long partition passes spread over the workers and the short
// sorts fill in behind them.
type sortQueue struct {
	mu      sync.Mutex
	more    sync.Cond
	tasks   []sortTask // tasks[head:] are queued
	head    int
	pending int
}

// sortParallel sorts every array in xss ascending in place, in the order
// of sort.Float64s, on up to workers goroutines. A task longer than
// splitLen is partitioned on its leading digit and its buckets are queued
// as tasks, so a few equal arrays — one configuration's three — spread
// over every worker instead of idling all but len(xss) of them. Each
// bucket goes through exactly the steps the serial sort would take, so
// the result does not depend on the split.
func sortParallel(xss [][]float64, workers int) {
	q := &sortQueue{}
	q.more.L = &q.mu
	for _, xs := range xss {
		q.push(sortTask{xs: xs, shift: 56})
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t, ok := q.pop()
				if !ok {
					return
				}
				q.run(t)
				q.done()
			}
		}()
	}
	wg.Wait()
}

func (q *sortQueue) push(t sortTask) {
	q.mu.Lock()
	q.tasks = append(q.tasks, t)
	q.pending++
	q.mu.Unlock()
	q.more.Signal()
}

// pop takes the oldest task, waiting while none is queued but one is
// still running; ok is false once nothing is queued or running.
func (q *sortQueue) pop() (t sortTask, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == len(q.tasks) && q.pending > 0 {
		q.more.Wait()
	}
	if q.head == len(q.tasks) {
		return sortTask{}, false
	}
	t = q.tasks[q.head]
	q.tasks[q.head] = sortTask{}
	q.head++
	return t, true
}

// done retires a task, waking every waiter when it was the last.
func (q *sortQueue) done() {
	q.mu.Lock()
	q.pending--
	last := q.pending == 0
	q.mu.Unlock()
	if last {
		q.more.Broadcast()
	}
}

// run sorts a short task outright, and splits a long one into its buckets.
func (q *sortQueue) run(t sortTask) {
	if len(t.xs) <= splitLen {
		radixSort(t.xs, t.shift)
		return
	}
	tail, at, split := radixPartition(t.xs, t.shift)
	if !split || at == 0 {
		return
	}
	start := 0
	for _, end := range tail {
		switch n := end - start; {
		case n > splitLen/16:
			q.push(sortTask{xs: t.xs[start:end], shift: at - 8})
		case n > 1:
			radixSort(t.xs[start:end], at-8)
		}
		start = end
	}
}
