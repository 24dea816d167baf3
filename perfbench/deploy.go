package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync/atomic"
	"syscall"
	"time"

	"lapse"
	"lapse/internal/cluster"
	"lapse/internal/driver"
	"lapse/internal/kv"
)

// deployment is the shared shape of every workload: one process hosting
// nodes × workers over a real in-process transport, with the system's
// default server-shard count and no modelled compute.
type deployment struct {
	nodes, workers int
	shards         int
	shm            bool   // shared-memory rings; false forces loopback TCP
	shmRoot        string // directory under which each cluster gets its ring directory
}

// shmSeq numbers ring directories so consecutive clusters never share one.
var shmSeq atomic.Int64

func newDeployment(shm bool, shmRoot string) deployment {
	return deployment{nodes: 2, workers: 1, shards: lapse.DefaultServerShards(), shm: shm, shmRoot: shmRoot}
}

func (d deployment) driver() driver.Deployment {
	addrs := make([]string, d.nodes)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	tcp := &driver.TCPDeployment{Addrs: addrs, Node: -1, DisableSHM: !d.shm}
	if d.shm {
		tcp.SHMDir = filepath.Join(d.shmRoot, fmt.Sprintf("rings-%d-%d", os.Getpid(), shmSeq.Add(1)))
	}
	return driver.Deployment{Nodes: d.nodes, WorkersPerNode: d.workers, Shards: d.shards, TCP: tcp}
}

// system is one running parameter server and its cluster.
type system struct {
	cl        *cluster.Cluster
	ps        driver.PS
	transport string // what the network stack actually selected
}

// setUp starts a cluster for d, builds Lapse on it with opt and initialises
// every parameter with init; it returns the system and how long that took.
func setUp(d deployment, layout kv.Layout, opt driver.Options, init func(kv.Key, []float32)) (*system, time.Duration, error) {
	start := time.Now()
	cl, err := driver.NewCluster(d.driver())
	if err != nil {
		return nil, 0, fmt.Errorf("start cluster: %w", err)
	}
	ps := driver.Build(driver.Lapse, cl, layout, opt)
	ps.Init(init)
	took := time.Since(start)
	return &system{cl: cl, ps: ps, transport: driver.Transport(cl)}, took, nil
}

// close shuts the cluster down, waits for the server goroutines and hands
// the freed memory back to the OS, so the process's peak RSS is one
// cluster's footprint rather than depending on when the collector ran.
func (s *system) close() {
	s.cl.Close()
	s.ps.Shutdown()
	debug.FreeOSMemory()
}

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
