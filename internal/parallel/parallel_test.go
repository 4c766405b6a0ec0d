package parallel

import (
	"sync/atomic"
	"testing"
)

func TestDoRunsBoth(t *testing.T) {
	var a, b atomic.Int32
	Do(func() { a.Store(1) }, func() { b.Store(2) })
	if a.Load() != 1 || b.Load() != 2 {
		t.Fatalf("Do did not run both tasks: a=%d b=%d", a.Load(), b.Load())
	}
}

func TestDoNested(t *testing.T) {
	// Deep nested forking must neither deadlock nor lose tasks.
	var count atomic.Int64
	var rec func(depth int)
	rec = func(depth int) {
		if depth == 0 {
			count.Add(1)
			return
		}
		Do(func() { rec(depth - 1) }, func() { rec(depth - 1) })
	}
	rec(12)
	if got := count.Load(); got != 1<<12 {
		t.Fatalf("nested Do lost tasks: got %d want %d", got, 1<<12)
	}
}

func TestDoPanicPropagates(t *testing.T) {
	for name, f := range map[string]func(){
		"left":  func() { Do(func() { panic("boom") }, func() {}) },
		"right": func() { Do(func() {}, func() { panic("boom") }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: panic was swallowed", name)
				}
			}()
			f()
		}()
	}
}

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 100000} {
		hit := make([]atomic.Int32, n)
		For(n, 13, func(i int) { hit[i].Add(1) })
		for i := range hit {
			if hit[i].Load() != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, hit[i].Load())
			}
		}
	}
}

func TestForBlockedCoversAll(t *testing.T) {
	n := 100001
	hit := make([]atomic.Int32, n)
	ForBlocked(n, 997, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			hit[i].Add(1)
		}
	})
	for i := range hit {
		if hit[i].Load() != 1 {
			t.Fatalf("index %d visited %d times", i, hit[i].Load())
		}
	}
}

func TestSetParallelismSequential(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	SetParallelism(1)
	EnableStats(true)
	defer EnableStats(false)
	var c atomic.Int64
	Do(func() { c.Add(1) }, func() { c.Add(1) })
	For(1000, 10, func(int) {})
	if Forks() != 0 {
		t.Fatalf("parallelism=1 still forked %d times", Forks())
	}
	if c.Load() != 2 {
		t.Fatalf("tasks lost in sequential mode")
	}
}

func TestForksCounted(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	SetParallelism(4)
	EnableStats(true)
	defer EnableStats(false)
	Do(func() {}, func() {})
	if Forks() < 1 {
		t.Fatalf("expected at least one fork with parallelism 4")
	}
}

// TestDefaultGrainFloor pins the floor of the default grain at
// parallelism 4: For and ForBlocked with grain 0 over fewer than 1024
// items run inline, and NumBlocks reports one block for them. Above the
// floor the default is unchanged: 1<<16 items split into 8 blocks per
// worker, and For forks over them.
func TestDefaultGrainFloor(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	SetParallelism(4)
	defer EnableStats(false)
	for _, n := range []int{1, 16, 64, 1023} {
		EnableStats(true)
		For(n, 0, func(int) {})
		ForBlocked(n, 0, func(lo, hi int) {})
		if f := Forks(); f != 0 {
			t.Errorf("n=%d: For/ForBlocked with the default grain forked %d times", n, f)
		}
		if b, g := NumBlocks(n, 0); b != 1 || g < n {
			t.Errorf("NumBlocks(%d, 0) = %d,%d; want one block", n, b, g)
		}
	}
	if b, g := NumBlocks(1<<16, 0); b != 4*8 || g != 1<<11 {
		t.Errorf("NumBlocks(1<<16, 0) = %d,%d; want 32,2048 (8 blocks per worker)", b, g)
	}
	EnableStats(true)
	For(1<<16, 0, func(int) {})
	if Forks() == 0 {
		t.Error("For over 1<<16 items with the default grain never forked")
	}
}

func TestDo3(t *testing.T) {
	var c atomic.Int64
	Do3(func() { c.Add(1) }, func() { c.Add(10) }, func() { c.Add(100) })
	if c.Load() != 111 {
		t.Fatalf("Do3 lost a task: %d", c.Load())
	}
}

func TestNumBlocks(t *testing.T) {
	b, g := NumBlocks(100, 30)
	if b != 4 || g != 30 {
		t.Fatalf("NumBlocks(100,30) = %d,%d; want 4,30", b, g)
	}
	if b, _ := NumBlocks(0, 10); b != 0 {
		t.Fatalf("NumBlocks(0) = %d; want 0", b)
	}
}
