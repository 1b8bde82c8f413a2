package main

import (
	"fmt"
	"net"
	"time"

	"aets/internal/cluster"
	"aets/internal/htap"
	"aets/internal/metrics"
	"aets/internal/obsrv"
	"aets/internal/primary"
	"aets/internal/ship"
	"aets/internal/workload"
)

// runCluster is the sender side, `primary` and `cluster` alike: one
// generated epoch stream shipped to every -connect replica (one or
// many) simultaneously, each over its own independent link (cursor,
// window, reconnect), so a slow or dead replica never stalls its
// siblings. Per-link progress is published as ship_* metrics labelled
// peer="<addr>".
func runCluster(mode string, args []string) error {
	c, err := parseClusterFlags(mode, args)
	if err != nil {
		return err
	}
	c.applyProfiles()

	gen, plan, err := workloadPlan(c.workload)
	if err != nil {
		return err
	}
	schema := ship.SchemaHash(c.workload, workload.TableIDs(gen.Tables()))

	// -snapshot mirrors the stream into a local node so the fan-out can
	// cut a checkpoint covering everything sent so far: the state source
	// for re-basing replicas too stale to resume, and (with
	// -digest-every) the reference state for anti-entropy digests.
	var mirror *htap.Node
	if c.snapshot {
		mirror, err = htap.NewNode(htap.Kind("aets"), plan, htap.Options{Workers: 2, Columnar: c.columnar})
		if err != nil {
			return err
		}
		defer mirror.Close()
		if c.compactEvery > 0 {
			stop := mirror.StartCompactLoop(c.compactEvery, 0)
			defer stop()
		}
	}

	peers := make([]cluster.Peer, 0, len(c.connects))
	for _, addr := range c.connects {
		addr := addr
		peers = append(peers, cluster.Peer{ID: addr, Sender: ship.SenderConfig{
			Dial:           func() (net.Conn, error) { return net.Dial("tcp", addr) },
			Schema:         schema,
			Window:         c.window,
			HeartbeatEvery: c.hb,
			MaxAttempts:    c.retries,
			Compress:       c.compress,
		}})
	}
	fcfg := cluster.FanoutConfig{
		Peers:    peers,
		Registry: metrics.Default,
		MaxQueue: c.maxQueue,
	}
	if mirror != nil {
		fcfg.Snapshot = &htap.NodeSnapshotSource{N: mirror}
		if c.digestEvery > 0 {
			fcfg.DigestEvery = c.digestEvery
			fcfg.Digest = mirror.AntiEntropyDigest
		}
	}
	fan, err := cluster.NewFanout(fcfg)
	if err != nil {
		return err
	}

	closeHTTP, err := serveHTTP(c.httpAddr, obsrv.Options{
		Health: func() obsrv.Health {
			live := fan.Live()
			h := obsrv.Health{Healthy: live > 0, Status: "ok",
				ShipConnected: live == len(c.connects)}
			if live < len(c.connects) {
				h.Status = fmt.Sprintf("%d/%d peers live", live, len(c.connects))
			}
			if live == 0 {
				h.Status = "all peers down"
			}
			return h
		},
	})
	if err != nil {
		return err
	}
	defer closeHTTP()

	stopProgress := startTicker(time.Second, func() {
		for _, st := range fan.Stats() {
			status := "ok"
			if st.Err != nil {
				status = st.Err.Error()
			}
			fmt.Printf("  %-24s sent %6d acked %6d queued %5d inflight %3d reconnects %d [%s]\n",
				st.ID, st.Sent, st.Acked, st.Queued, st.Inflight, st.Reconnects, status)
		}
	})
	defer stopProgress()

	p := primary.New(gen, c.seed)
	encs := p.GenerateEncoded(c.txns, c.epochSize)
	start := time.Now()
	for i := range encs {
		if mirror != nil {
			// The mirror applies before the fan-out ships, so a snapshot
			// cut at any instant covers every epoch already offered.
			if err := mirror.Feed(&encs[i]); err != nil {
				return err
			}
		}
		if err := fan.Send(&encs[i]); err != nil {
			return err
		}
		if c.rate > 0 {
			time.Sleep(time.Second / time.Duration(c.rate))
		}
	}
	err = fan.Close()
	elapsed := time.Since(start).Round(time.Millisecond)
	for _, st := range fan.Stats() {
		status := "complete"
		if st.Err != nil {
			status = st.Err.Error()
		}
		ratio := ""
		if st.BytesRaw > 0 && st.BytesWire != st.BytesRaw {
			ratio = fmt.Sprintf(", wire/raw %.3f", float64(st.BytesWire)/float64(st.BytesRaw))
		}
		snaps := ""
		if st.Snapshots > 0 {
			snaps = fmt.Sprintf(", snapshots %d", st.Snapshots)
		}
		fmt.Printf("peer %-24s acked %d/%d, reconnects %d%s%s — %s\n",
			st.ID, st.Acked, len(encs), st.Reconnects, ratio, snaps, status)
	}
	fmt.Printf("fanned out %d epochs (%d txns) to %d replicas in %v\n",
		len(encs), c.txns, len(c.connects), elapsed)
	return err
}
