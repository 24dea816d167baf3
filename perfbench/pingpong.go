package main

import (
	"fmt"
	"sort"
	"time"

	"lapse/internal/driver"
	"lapse/internal/kv"
	"lapse/internal/msg"
)

// pingPong measures the transport alone on a workload's deployment: node 0
// sends a one-key pull Op to node 1, node 1 answers with an OpResp, node 0
// waits for it, rounds times. It returns the round-trip p50 and p99 in µs.
// No parameter server runs on the cluster, so nothing else reads the inboxes.
func pingPong(d deployment, rounds int) (p50, p99 float64, err error) {
	cl, err := driver.NewCluster(d.driver())
	if err != nil {
		return 0, 0, fmt.Errorf("ping-pong cluster: %w", err)
	}
	net := cl.Net()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for env := range net.Inbox(1, 0) {
			op := env.Msg.(*msg.Op)
			net.Send(1, 0, &msg.OpResp{Type: op.Type, ID: op.ID, Responder: 1, Keys: op.Keys, Vals: []float32{1}})
			env.Recycle()
		}
	}()
	// Key 0 lives on inbox shard 0 whatever the shard count.
	req := &msg.Op{Type: msg.OpPull, Origin: 0, Keys: []kv.Key{0}}
	rtts := make([]float64, 0, rounds)
	inbox := net.Inbox(0, 0)
	for i := 0; i < rounds; i++ {
		req.ID = uint64(i)
		start := time.Now()
		net.Send(0, 1, req)
		env, ok := <-inbox
		if !ok {
			err = fmt.Errorf("ping-pong: inbox closed after %d rounds: %v", i, net.Err())
			break
		}
		rtts = append(rtts, float64(time.Since(start))/1e3)
		env.Recycle()
	}
	cl.Close()
	<-done
	sort.Float64s(rtts)
	return quantile(rtts, 0.5), quantile(rtts, tailPercentile(len(rtts), 0.5, 0.9, 0.99)), err
}
