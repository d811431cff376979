package experiments

import (
	"runtime"
	"sync"
)

// fanout runs n independent jobs concurrently, bounded by the machine's
// parallelism. Experiment arms are separate simulator instances with their
// own seeds, so cross-run parallelism is free determinism-wise: each job
// writes only to its own result slot and the table is assembled afterwards
// in arm order.
func fanout(n int, job func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				job(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// fanoutCollect is fanout with an ordered read-out on the calling
// goroutine: collect(i) runs once job(i) has finished and collect has run
// for every lower i. Arms are read in arm order while later arms still
// run, so each arm's state can be released as soon as it is read instead
// of when the last arm finishes.
func fanoutCollect(n int, job, collect func(i int)) {
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		fanout(n, func(i int) {
			job(i)
			close(done[i])
		})
	}()
	for i, d := range done {
		<-d
		collect(i)
	}
	<-ran
}
