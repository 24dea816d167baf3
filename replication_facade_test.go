package lapse_test

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"lapse"
)

// TestReplicateFacade drives the hot-key replication subsystem through the
// public API: replicated keys serve locally, stats surface the replica
// counters, and replicas converge to the merged value.
func TestReplicateFacade(t *testing.T) {
	hot := []lapse.Key{0, 1, 2, 3}
	cl, err := lapse.NewCluster(lapse.Config{
		Nodes: 2, WorkersPerNode: 2, Keys: 16, ValueLength: 2,
		Replicate:        hot,
		ReplicaSyncEvery: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ones := make([]float32, len(hot)*2)
	for i := range ones {
		ones[i] = 1
	}
	err = cl.Run(func(w *lapse.Worker) error {
		if err := w.Push(hot, ones); err != nil {
			return err
		}
		buf := make([]float32, len(hot)*2)
		return w.Pull(hot, buf)
	})
	if err != nil {
		t.Fatal(err)
	}
	st := cl.Stats()
	if st.ReplicaHits == 0 {
		t.Fatalf("ReplicaHits = 0 after pulling replicated keys; stats %+v", st)
	}
	if st.RemoteReads != 0 {
		t.Fatalf("RemoteReads = %d for replicated-only workload, want 0", st.RemoteReads)
	}

	// The background sync converges every replica; verify through worker
	// pulls on each node (eventual: poll with a deadline).
	want := float32(cl.Workers())
	deadline := time.Now().Add(5 * time.Second)
	for {
		cl.SyncReplicas()
		var diverged atomic.Bool
		err = cl.Run(func(w *lapse.Worker) error {
			buf := make([]float32, len(hot)*2)
			if err := w.Pull(hot, buf); err != nil {
				return err
			}
			for _, v := range buf {
				if v != want {
					diverged.Store(true)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !diverged.Load() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replicas did not converge")
		}
		time.Sleep(time.Millisecond)
	}
	if st := cl.Stats(); st.ReplicaSyncMessages == 0 {
		t.Fatal("ReplicaSyncMessages = 0 after convergence")
	}

	// The access tracker saw the hot keys.
	hotSeen := cl.HotKeys(len(hot))
	if len(hotSeen) == 0 {
		t.Fatal("HotKeys returned nothing after a hot-key workload")
	}
}

// TestAdaptiveFacade drives the adaptive controller through the public API: a
// skewed workload — every worker hammers the same two hot keys and pushes to
// one cold key of its own — must get keys promoted, and once the replicas
// sync, every key's value must equal the analytic sum of the pushes made to
// it, whatever the controller moved along the way.
func TestAdaptiveFacade(t *testing.T) {
	const (
		keys    = 32
		hotKeys = 2
		iters   = 200 // per worker and Run; each hot key takes half of them
	)
	cl, err := lapse.NewCluster(lapse.Config{
		Nodes: 2, WorkersPerNode: 2, Keys: keys, ValueLength: 1,
		Adaptive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	one := []float32{1}
	runs := 0
	deadline := time.Now().Add(15 * time.Second)
	for cl.Stats().AdaptPromotions == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("skewed workload promoted no key: stats %+v", cl.Stats())
		}
		err := cl.Run(func(w *lapse.Worker) error {
			buf := make([]float32, 1)
			cold := []lapse.Key{lapse.Key(hotKeys + w.ID())}
			for i := 0; i < iters; i++ {
				hot := []lapse.Key{lapse.Key(i % hotKeys)}
				if err := w.Pull(hot, buf); err != nil {
					return err
				}
				if err := w.Push(hot, one); err != nil {
					return err
				}
				if err := w.Push(cold, one); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		runs++
	}

	want := make([]float32, keys)
	for k := 0; k < hotKeys; k++ {
		want[k] = float32(runs * cl.Workers() * iters / hotKeys)
	}
	for w := 0; w < cl.Workers(); w++ {
		want[hotKeys+w] = float32(runs * iters)
	}
	got := make([]float32, 1)
	for k := range want {
		for {
			cl.SyncReplicas()
			cl.Read(lapse.Key(k), got)
			if got[0] == want[k] {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("key %d = %v after %d runs, want %v", k, got[0], runs, want[k])
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func TestReplicateRejectsOutOfRangeKey(t *testing.T) {
	_, err := lapse.NewCluster(lapse.Config{
		Nodes: 1, WorkersPerNode: 1, Keys: 4, ValueLength: 1,
		Replicate: []lapse.Key{99},
	})
	if err == nil {
		t.Fatal("NewCluster accepted a replicated key outside the layout")
	}
}

// TestAsyncTryWait pins the Async completion API: TryWait surfaces the
// operation's error, which Done (by design) discards.
func TestAsyncTryWait(t *testing.T) {
	cl, err := lapse.NewCluster(lapse.Config{Nodes: 1, WorkersPerNode: 1, Keys: 4, ValueLength: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Run(func(w *lapse.Worker) error {
		// A buffer-size mismatch fails the operation immediately.
		bad := w.PullAsync([]lapse.Key{0}, make([]float32, 1))
		done, err := bad.TryWait()
		if !done {
			return errors.New("failed op not done")
		}
		if err == nil {
			return errors.New("TryWait returned nil error for failed op")
		}
		if !bad.Done() {
			return errors.New("Done disagrees with TryWait")
		}
		// A successful operation completes with nil error.
		good := w.PullAsync([]lapse.Key{0}, make([]float32, 2))
		if err := good.Wait(); err != nil {
			return err
		}
		done, err = good.TryWait()
		if !done || err != nil {
			return errors.New("TryWait after Wait should be (true, nil)")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
