package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"time"
)

// Host-speed calibration. The shared host this benchmark runs on
// changes speed by tens of percent over seconds to minutes, and no
// statistic inside a run undoes a spell that covers all of it. So the
// benchmark times a short calibration slice of its own between ops and
// scales every timed op by how fast the slices around it ran, relative
// to calRefMS. A change in the program moves the op times but not the
// slices; a slow spell of the host moves both and largely cancels out.
//
// A slice is Go standard library work only, none of the program's
// code, in two parts that each follow one kind of slow spell:
//   - a ping-pong: round trips of a 64-byte message over a loopback TCP
//     connection to an echo goroutine, the path the ops spend their
//     time around (socket writes and reads, the kernel's loopback, the
//     netpoller, goroutine wake-ups across cores). In one slow spell
//     grade's throughput fell 40%, CPU work 20% and the ping-pong 36%.
//   - CPU work on every P at once (pointer chasing, string-keyed map
//     lookups, a sort, a hash), as the ops keep both cores busy. In
//     another spell the program slowed 13% and the ping-pong not at
//     all.
//
// The slice time is the sum of the two parts.
//
// The program's garbage collector would move the slices too, so each
// slice first waits for any collection the op left running to finish
// and holds the next one off until it ends. The wait is the tail of
// the op before it; throughput counts it (see summarizeE2E), so no
// collector work drops out of the figures.

const (
	// calRefMS is the slice time the timings are scaled to: about the
	// median slice between grade ops on the 2-vCPU Xeon (Sapphire
	// Rapids) host the benchmark was tuned on. The end-to-end timings
	// read as milliseconds on a host where a slice takes calRefMS.
	calRefMS = 0.65
	// calTrips is how many round trips a slice times, after calWarm
	// untimed ones.
	calTrips = 20
	// calWarm is how many untimed round trips, and untimed runs of each
	// lane's CPU work, precede the timed ones. With one run of CPU work,
	// slices between ops ran 12% slower than slices back to back, as
	// the op had evicted the work's data; with three, within a few
	// percent.
	calWarm = 3
	// calWindow is how many slices on each side of an op its speed
	// factor is taken over. Slice times are correlated over about ten
	// slices and not over fifty.
	calWindow = 24
	// calBurst is how many slices are timed before and after each
	// set-up.
	calBurst = 48
)

// calibrator holds the ping-pong connection, the CPU work's lanes and
// the slice times taken so far.
type calibrator struct {
	ln      net.Listener
	conn    net.Conn
	echoed  chan struct{} // closed when the echo goroutine returns
	msg     []byte
	lanes   []*lane   // lanes[0] runs on the caller; the rest on helpers
	samples []float64 // ms per slice, in order
	waits   []float64 // ms each slice waited for a collection to end
}

// lane holds one P's CPU work inputs, built once so that a slice
// allocates nothing (an allocating slice would add GC work to the ops
// it sits between). They fit in a core's L2 cache. A helper lane's
// goroutine serves every slice for the life of the calibrator.
type lane struct {
	next    []uint32 // one random cycle over a 64 kB array
	keys    []string
	table   map[string]int32
	unorder []int
	scratch []int
	block   []byte
	sink    uint64
	run     chan struct{} // warm up; closed to stop the helper
	ready   chan struct{} // warmed up
	timed   chan struct{} // start the timed run
	done    chan struct{} // timed run finished
}

func newCalibrator() (*calibrator, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := &calibrator{ln: ln, echoed: make(chan struct{}), msg: make([]byte, 64)}
	go func() {
		defer close(c.echoed)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, len(c.msg))
		for {
			if _, err := io.ReadFull(conn, buf); err != nil {
				return
			}
			if _, err := conn.Write(buf); err != nil {
				return
			}
		}
	}()
	if c.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		ln.Close()
		<-c.echoed
		return nil, err
	}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		l := newLane(int64(i + 1))
		if i > 0 {
			l.run, l.ready, l.timed, l.done = make(chan struct{}), make(chan struct{}), make(chan struct{}), make(chan struct{})
			go l.serve()
		}
		c.lanes = append(c.lanes, l)
	}
	for i := 0; i < 64; i++ {
		if err := c.trip(); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

// close ends the connection and the helpers and waits for the echo
// goroutine.
func (c *calibrator) close() {
	if c == nil {
		return
	}
	c.conn.Close()
	c.ln.Close()
	<-c.echoed
	for _, l := range c.lanes[1:] {
		close(l.run)
	}
}

func newLane(seed int64) *lane {
	r := rand.New(rand.NewSource(seed))
	l := &lane{table: map[string]int32{}}
	perm := r.Perm(1 << 14)
	l.next = make([]uint32, len(perm))
	for i := range perm {
		l.next[perm[i]] = uint32(perm[(i+1)%len(perm)])
	}
	for i := 0; i < 1024; i++ {
		k := "sig_" + strconv.Itoa(r.Int())
		l.keys = append(l.keys, k)
		l.table[k] = int32(i)
	}
	l.unorder = r.Perm(4096)
	l.scratch = make([]int, 1024)
	l.block = make([]byte, 2048)
	r.Read(l.block)
	for i := 0; i < 64; i++ { // warm the branch predictor
		l.work()
	}
	return l
}

// serve runs a helper lane's part of every slice.
func (l *lane) serve() {
	for range l.run {
		for i := 0; i < calWarm; i++ {
			l.work()
		}
		l.ready <- struct{}{}
		<-l.timed
		l.work()
		l.done <- struct{}{}
	}
}

// work is one lane's CPU work: pointer chasing, string-keyed map
// lookups, a sort and a hash. Each run starts where the last one ended,
// so its branches stay as unpredictable as real data: work that
// repeated itself exactly ran faster the more the branch predictor had
// learnt it, which the ops around it changed. The result goes to sink
// so the compiler cannot drop the work.
func (l *lane) work() {
	p := uint32(l.sink % uint64(len(l.next)))
	for i := 0; i < 4000; i++ {
		p = l.next[p]
	}
	acc := uint64(p)
	for i := 0; i < 1600; i++ {
		acc += uint64(l.table[l.keys[(i*7+int(acc))%len(l.keys)]])
	}
	from := int(acc % uint64(len(l.unorder)-len(l.scratch)))
	copy(l.scratch, l.unorder[from:])
	slices.Sort(l.scratch)
	sum := sha256.Sum256(l.block)
	l.sink = acc + uint64(l.scratch[int(acc)%len(l.scratch)]) + uint64(sum[0])
}

// trip sends the message and reads its echo.
func (c *calibrator) trip() error {
	if _, err := c.conn.Write(c.msg); err != nil {
		return err
	}
	_, err := io.ReadFull(c.conn, c.msg)
	return err
}

// slice waits for the collector to be idle, then, with collection held
// off, times the ping-pong and the CPU work and records their sum and
// the wait. A nil calibrator (a traced run's) does nothing. A failed
// round trip ends the run: the connection is the benchmark's own and
// never fails.
func (c *calibrator) slice() {
	if c == nil {
		return
	}
	t := time.Now()
	gogc := debug.SetGCPercent(-1) // returns once no collection is running
	wait := time.Since(t)
	for i := 0; i < calWarm+calTrips; i++ {
		if i == calWarm {
			t = time.Now()
		}
		if err := c.trip(); err != nil {
			panic(fmt.Sprintf("calibration round trip: %v", err))
		}
	}
	pingPong := time.Since(t)

	helpers := c.lanes[1:]
	for _, l := range helpers {
		l.run <- struct{}{}
	}
	for i := 0; i < calWarm; i++ {
		c.lanes[0].work()
	}
	for _, l := range helpers {
		<-l.ready
	}
	t = time.Now()
	for _, l := range helpers {
		l.timed <- struct{}{}
	}
	c.lanes[0].work()
	for _, l := range helpers {
		<-l.done
	}
	cpu := time.Since(t)

	c.samples = append(c.samples, float64((pingPong+cpu).Nanoseconds())/1e6)
	c.waits = append(c.waits, float64(wait.Nanoseconds())/1e6)
	debug.SetGCPercent(gogc)
}

// setup runs one set-up between two bursts of calBurst slices and
// returns its time scaled by the median slice of both bursts, and its
// raw time. f returns the set-up's raw time in seconds. A nil
// calibrator returns the raw time as both.
func (c *calibrator) setup(f func() (float64, error)) (scaledS, rawS float64, err error) {
	if c == nil {
		rawS, err = f()
		return rawS, rawS, err
	}
	from := c.mark()
	for i := 0; i < calBurst; i++ {
		c.slice()
	}
	if rawS, err = f(); err != nil {
		return 0, 0, err
	}
	for i := 0; i < calBurst; i++ {
		c.slice()
	}
	return rawS * calRefMS / median(c.samples[from:]), rawS, nil
}

// passTimes is one timed pass: each op's raw latency, the factor that
// scales it to the reference speed, and the time the slice after it
// waited for the collection the op left running.
type passTimes struct {
	latMS, factors, gcWaitMS []float64
}

// mark is where a timed pass starts in the slice record.
func (c *calibrator) mark() int { return len(c.samples) }

// pass pairs the op latencies of a pass that started at mark with
// their calibration. Slice from+i ran just before op i, and one more
// slice ran after the last op. An op's factor is calRefMS over the
// median slice within calWindow slices of it.
func (c *calibrator) pass(from int, latMS []float64) passTimes {
	n := len(latMS)
	sl := c.samples[from:]
	p := passTimes{latMS: latMS, factors: make([]float64, n), gcWaitMS: c.waits[from+1 : from+1+n]}
	for i := range p.factors {
		lo := max(0, i-calWindow)
		hi := min(len(sl), i+1+calWindow)
		p.factors[i] = calRefMS / median(sl[lo:hi])
	}
	return p
}

// scaled multiplies each x by its factor.
func scaled(xs, fs []float64) []float64 {
	out := make([]float64, len(xs))
	for i := range xs {
		out[i] = xs[i] * fs[i]
	}
	return out
}
