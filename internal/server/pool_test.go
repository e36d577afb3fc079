package server

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsSubmittedWork(t *testing.T) {
	p := newPool(4, 16)
	defer p.close()
	var ran atomic.Int64
	done := make(chan struct{}, 32)
	task := func() {
		ran.Add(1)
		done <- struct{}{}
	}
	for i := 0; i < 32; i++ {
		// The queue can legitimately fill; wait for a completion and
		// retry. A task signals before its worker takes the next queued
		// one, so a single wait need not have freed a slot yet.
		for {
			err := p.submit(context.Background(), task)
			if err == nil {
				break
			}
			if !errors.Is(err, ErrQueueFull) {
				t.Fatalf("submit failed: %v", err)
			}
			<-done
		}
	}
	deadline := time.After(5 * time.Second)
	for ran.Load() < 32 {
		select {
		case <-deadline:
			t.Fatalf("only %d/32 tasks ran", ran.Load())
		case <-time.After(time.Millisecond):
		}
	}
}

func TestPoolShedsWhenFull(t *testing.T) {
	p := newPool(1, 1)
	defer p.close()
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{})

	if err := p.submit(context.Background(), func() {
		close(started)
		<-release
	}); err != nil {
		t.Fatal(err)
	}
	<-started // worker busy
	if err := p.submit(context.Background(), func() {}); err != nil {
		t.Fatalf("queue slot should accept: %v", err)
	}
	err := p.submit(context.Background(), func() {})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err %v, want ErrQueueFull", err)
	}
	if p.depth() != 1 {
		t.Errorf("depth %d, want 1", p.depth())
	}
	if p.busyWorkers() != 1 {
		t.Errorf("busy %d, want 1", p.busyWorkers())
	}
	if u := p.utilization(); u != 1 {
		t.Errorf("utilization %v, want 1", u)
	}
}

func TestPoolRejectsDoneContext(t *testing.T) {
	p := newPool(1, 1)
	defer p.close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.submit(ctx, func() {}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
}

func TestPoolCloseDrainsQueue(t *testing.T) {
	p := newPool(1, 8)
	var ran atomic.Int64
	for i := 0; i < 5; i++ {
		if err := p.submit(context.Background(), func() {
			time.Sleep(time.Millisecond)
			ran.Add(1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	p.close()
	if ran.Load() != 5 {
		t.Errorf("close drained %d/5 tasks", ran.Load())
	}
}

func TestFlightGroupDedups(t *testing.T) {
	g := newFlightGroup()
	c1, leader1 := g.join("k")
	if !leader1 {
		t.Fatal("first join should lead")
	}
	c2, leader2 := g.join("k")
	if leader2 {
		t.Fatal("second join should follow")
	}
	if c1 != c2 {
		t.Fatal("joiners got different calls")
	}
	go g.finish("k", c1, []byte("R"), nil)
	body, err := c2.wait(context.Background())
	if err != nil || string(body) != "R" {
		t.Fatalf("wait got (%q, %v)", body, err)
	}
	// The key is retired after finish: a new join leads again.
	if _, leader := g.join("k"); !leader {
		t.Error("key not retired after finish")
	}
}

func TestFlightWaitHonorsContext(t *testing.T) {
	g := newFlightGroup()
	c, _ := g.join("k")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := c.wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v, want deadline exceeded", err)
	}
	g.finish("k", c, nil, nil) // leave no dangling call
}
