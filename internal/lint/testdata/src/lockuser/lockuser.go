// Package lockuser is the lockhygiene fixture: blocking operations under
// a held sync.Mutex/RWMutex and unreleased locks are flagged; balanced
// regions and non-blocking polls are not.
package lockuser

import (
	"sync"
	"time"
)

type S struct {
	mu sync.Mutex
	rw sync.RWMutex
	ch chan int
	n  int
}

func (s *S) Good() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
}

func (s *S) SleepUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(time.Millisecond) // want "time.Sleep while s.mu is held"
}

func (s *S) RecvUnderLock() int {
	s.mu.Lock()
	v := <-s.ch // want "channel receive while s.mu is held"
	s.mu.Unlock()
	return v
}

func (s *S) SendAfterUnlock() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	s.ch <- s.n // ok: lock released first
}

func (s *S) TransitiveWait() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drain() // want "call to lockuser.S.drain blocks while s.mu is held"
}

func (s *S) drain() {
	for range s.ch { // ok: no lock held in this function
	}
}

// pingA/pingB form a call cycle that reaches a channel receive; the
// blocking closure must terminate on it.
func (s *S) pingA(n int) {
	if n > 0 {
		s.pingB(n - 1)
	}
}

func (s *S) pingB(n int) {
	if n > 0 {
		s.pingA(n - 1)
	}
	<-s.ch // ok: no lock held in this function
}

func (s *S) CycleUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pingA(3) // want "call to lockuser.S.pingA blocks while s.mu is held"
}

func (s *S) Leak() {
	s.mu.Lock() // want "never released"
	s.n++
}

func (s *S) BranchRelease(b bool) int {
	s.mu.Lock()
	if b {
		s.mu.Unlock()
		return 0
	}
	n := s.n
	s.mu.Unlock()
	<-s.ch // ok: every path released before blocking
	return n
}

func (s *S) NonBlockingPoll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // ok: default clause makes this a poll
	case v := <-s.ch:
		s.n = v
	default:
	}
}

func (s *S) BlockingSelect() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want "select without default while s.mu is held"
	case v := <-s.ch:
		s.n = v
	case s.ch <- s.n:
	}
}

func (s *S) ReadersDontBlock() int {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return s.n
}

func (s *S) RLockLeak() {
	s.rw.RLock() // want "never released"
	_ = s.n
}

func (s *S) WaitGroupUnderLock(wg *sync.WaitGroup) {
	s.mu.Lock()
	wg.Wait() // want "WaitGroup.Wait while s.mu is held"
	s.mu.Unlock()
}

func (s *S) Sanctioned() {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(time.Millisecond) // want "time.Sleep while s.mu is held"
}

func (s *S) SanctionedInline(wg *sync.WaitGroup) {
	s.mu.Lock()
	wg.Wait() // want "WaitGroup.Wait while s.mu is held"
	s.mu.Unlock()
}
