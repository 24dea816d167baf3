package lapse_test

import (
	"fmt"
	"testing"
	"time"

	"lapse"
)

// TestServingLeaseInvalidationAcrossTransports pins the serving tier's
// cross-node consistency contract on every transport: after a Push at the
// key's home node, a reader node holding a cached lease must observe the new
// value well within the test deadline — far inside the 30s lease TTL, so the
// freshness can only come from the revocation protocol (the ManageRevoke
// message), never from expiry. The writer additionally asserts read-your-writes on its own node.
// Runs under -race in CI for all three transports.
func TestServingLeaseInvalidationAcrossTransports(t *testing.T) {
	serving := &lapse.ServingConfig{TTL: 30 * time.Second}
	cases := map[string]lapse.Config{
		"simnet": {
			Nodes: 2, WorkersPerNode: 1, Keys: 8, ValueLength: 1,
			Serving: serving,
		},
		"shm": {
			Nodes: 2, WorkersPerNode: 1, Keys: 8, ValueLength: 1,
			Serving: serving,
			TCP: &lapse.TCPDeployment{
				Addrs: []string{"127.0.0.1:0", "127.0.0.1:0"},
				Node:  -1,
			},
		},
		"tcp": {
			Nodes: 2, WorkersPerNode: 1, Keys: 8, ValueLength: 1,
			Serving: serving,
			TCP: &lapse.TCPDeployment{
				Addrs:      []string{"127.0.0.1:0", "127.0.0.1:0"},
				Node:       -1,
				DisableSHM: true,
			},
		},
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			cl, err := lapse.NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			keys := []lapse.Key{6} // homed at node 1
			err = cl.Run(func(w *lapse.Worker) error {
				buf := make([]float32, 1)
				// Both workers cache the key (worker 1 reads its own
				// node's key; worker 0 takes a cross-node lease).
				if err := w.MultiGet(keys, buf); err != nil {
					return err
				}
				if buf[0] != 0 {
					return fmt.Errorf("initial MultiGet = %v, want [0]", buf)
				}
				w.Barrier()
				if w.Node() == 1 {
					// The writer: push at the key's home, then assert
					// read-your-writes through its own cache.
					if err := w.Push(keys, []float32{3}); err != nil {
						return err
					}
					if err := w.MultiGet(keys, buf); err != nil {
						return err
					}
					if buf[0] != 3 {
						return fmt.Errorf("writer read-your-writes: MultiGet = %v, want [3]", buf)
					}
					w.Barrier() // release the reader's poll bound
					return nil
				}
				// The reader: poll until the revocation lands. The 5s
				// bound is 6x under the TTL, so observing the write
				// proves invalidation, not expiry.
				deadline := time.Now().Add(5 * time.Second)
				for buf[0] != 3 {
					if time.Now().After(deadline) {
						return fmt.Errorf("lease never invalidated: reader still sees %v", buf)
					}
					time.Sleep(time.Millisecond)
					if err := w.MultiGet(keys, buf); err != nil {
						return err
					}
				}
				w.Barrier()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			st := cl.Stats()
			if st.LeaseGrants == 0 || st.LeaseInvalidations == 0 {
				t.Fatalf("serving counters show no lease traffic: %+v", st)
			}
		})
	}
}
