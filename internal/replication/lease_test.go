package replication

import (
	"sync"
	"testing"
	"time"

	"lapse/internal/kv"
	"lapse/internal/msg"
)

// Leases share the copy table with replicas. These tests pin how the two
// kinds of entry meet: a lease never disturbs a replica, a replica replaces
// a lease, and the replication paths (push, pull, demote, refresh) treat a
// leased key as not replicated.

// leaseTestManager returns node 1's manager of a two-node cluster over 8
// keys of length 2, with key 2 replicated (homed at node 0).
func leaseTestManager() *Manager {
	return newTestFabric(2, kv.NewUniformLayout(8, 2), []kv.Key{2}).managers[1]
}

func TestInstallLeaseOnReplicaChangesNothing(t *testing.T) {
	m := leaseTestManager()
	m.Push(2, []float32{3, 4})
	m.InstallLease(2, []float32{9, 9}, time.Minute)
	if !m.Replicated(2) {
		t.Fatal("lease install demoted the replica")
	}
	if got := replicaOf(t, m, 2, 2); got[0] != 3 || got[1] != 4 {
		t.Fatalf("replica after lease install = %v, want [3 4]", got)
	}
	if m.Lease(2, make([]float32, 2)) {
		t.Fatal("replica served as a lease")
	}
}

func TestEnterKeyOverLeaseInstallsReplica(t *testing.T) {
	m := leaseTestManager()
	m.InstallLease(5, []float32{1, 1}, time.Minute)
	m.EnterKey(5, []float32{5, 6})
	if !m.Replicated(5) {
		t.Fatal("EnterKey over a lease did not replicate the key")
	}
	dst := make([]float32, 2)
	if !m.Pull(5, dst) || dst[0] != 5 || dst[1] != 6 {
		t.Fatalf("replica pull after EnterKey over a lease = %v, want [5 6]", dst)
	}
	if m.Lease(5, dst) {
		t.Fatal("replica still served as a lease")
	}
}

func TestDropLeaseLeavesReplicaReadable(t *testing.T) {
	m := leaseTestManager()
	m.Push(2, []float32{7, 8})
	if m.DropLease(2) {
		t.Fatal("DropLease reported a lease on a replicated key")
	}
	dst := make([]float32, 2)
	if !m.Pull(2, dst) || dst[0] != 7 || dst[1] != 8 {
		t.Fatalf("replica pull after DropLease = %v, want [7 8]", dst)
	}
}

func TestDemoteAndRefreshIgnoreLease(t *testing.T) {
	m := leaseTestManager()
	m.InstallLease(5, []float32{1, 2}, time.Minute)
	if vals, seqs := m.DemoteLocal(5); vals != nil || seqs != nil {
		t.Fatalf("DemoteLocal of a leased key returned %v %v", vals, seqs)
	}
	// A late refresh of the key (from before a demotion elsewhere) must not
	// turn the lease into a replica or overwrite the leased value.
	m.HandleRefresh(&msg.ReplicaRefresh{Origin: 0, Keys: []kv.Key{5}, Vals: []float32{40, 50}})
	if m.Replicated(5) {
		t.Fatal("refresh replicated a leased key")
	}
	if m.Push(5, []float32{1, 1}) || m.Pull(5, make([]float32, 2)) {
		t.Fatal("replication push/pull served a leased key")
	}
	dst := make([]float32, 2)
	if !m.Lease(5, dst) || dst[0] != 1 || dst[1] != 2 {
		t.Fatalf("lease after demote and refresh = %v, want [1 2]", dst)
	}
}

func TestExpiredLeaseNotServedAndRemoved(t *testing.T) {
	m := leaseTestManager()
	m.InstallLease(5, []float32{1, 2}, -time.Second)
	if m.Lease(5, make([]float32, 2)) {
		t.Fatal("expired lease served")
	}
	if m.replica.Has(5) || m.state[5].Load() != entryNone {
		t.Fatal("expired lease left in the copy table")
	}
	if m.DropLease(5) {
		t.Fatal("expired lease still droppable after the read removed it")
	}
}

// TestLeaseConcurrentInstallReadDrop runs the three lease paths from
// different goroutines at once, as shard goroutines (installs, revokes) and
// workers (reads, write-through drops) do, ending with a promotion over the
// lease. Under -race it checks the entry's synchronization; every install
// writes a value whose elements are equal, so a read that sees two
// different elements caught a torn copy.
func TestLeaseConcurrentInstallReadDrop(t *testing.T) {
	m := leaseTestManager()
	const k, rounds = kv.Key(5), 2000
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			m.InstallLease(k, []float32{float32(i), float32(i)}, time.Minute)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			m.DropLease(k)
		}
	}()
	go func() {
		defer wg.Done()
		dst := make([]float32, 2)
		for i := 0; i < rounds; i++ {
			if m.Lease(k, dst) && dst[0] != dst[1] {
				t.Errorf("torn lease read %v", dst)
				return
			}
		}
	}()
	wg.Wait()
	m.EnterKey(k, []float32{-1, -1})
	dst := make([]float32, 2)
	if !m.Pull(k, dst) || dst[0] != -1 || m.Lease(k, dst) {
		t.Fatalf("promotion after concurrent lease traffic: replica %v", dst)
	}
}
