// Command ccserved is the compile daemon: an HTTP/JSON server that accepts
// communication programs in the internal/trace format and serves compiled
// TDM schedules with content-addressed caching, request coalescing and
// admission control (internal/service).
//
// Usage:
//
//	ccserved -addr :8080
//	ccserved -addr :8080 -topology torus-8x8 -alg combined -workers 4 -queue 64 -cache 256
//	curl -s -XPOST --data-binary @prog.json http://localhost:8080/compile | jq .
//
// On SIGINT/SIGTERM the daemon drains: the listener stops accepting, queued
// and running compiles finish, then the process exits.
//
// Cluster mode federates several daemons into one logical cache
// (internal/cluster): pass the full roster and this node's own advertised
// URL and each key gets a deterministic owner on a consistent-hash ring,
// misses are forwarded to the owner, and background gossip replicates
// artifacts to their replica set so a node's keys stay warm after it dies:
//
//	ccserved -addr :8080 -self http://10.0.0.1:8080 \
//	  -peers http://10.0.0.1:8080,http://10.0.0.2:8080,http://10.0.0.3:8080 \
//	  -replication 2 -gossip-interval 1s
//	curl -s http://10.0.0.1:8080/cluster | jq .
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/qos"
	"repro/internal/schedule"
	"repro/internal/service"
	"repro/internal/topology"
)

var (
	addrFlag     = flag.String("addr", ":8080", "listen address")
	topologyFlag = flag.String("topology", "torus-8x8", "default network compiled against")
	algFlag      = flag.String("alg", "combined", "default scheduling algorithm: combined, greedy, coloring, aapc, exact")
	workersFlag  = flag.Int("workers", 0, "compile worker pool size (0 = GOMAXPROCS)")
	queueFlag    = flag.Int("queue", 64, "admission queue depth; requests beyond workers+queue get 429")
	cacheFlag    = flag.Int("cache", 256, "schedule cache entries (LRU)")
	retryFlag    = flag.Duration("retry-after", time.Second, "Retry-After hint on 429 replies")
	qosFlag      = flag.String("qos", "", "QoS classes, e.g. \"gold:weight=8,queue=64,cache=256;bronze:weight=1,queue=16\"; empty = single default class")
	pprofFlag    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	drainFlag    = flag.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight requests on shutdown")

	storeDirFlag   = flag.String("store-dir", "", "persistent schedule store directory (empty = memory-only)")
	storeMaxFlag   = flag.Int("store-max-entries", 0, "store GC: keep at most this many entries (0 = unbounded)")
	storeAgeFlag   = flag.Duration("store-max-age", 0, "store GC: expire entries older than this (0 = unbounded)")
	deltaBoundFlag = flag.Float64("delta-bound", 0, "accept an incrementally patched schedule when its degree is within this factor of the from-scratch estimate (0 = default 1.5)")

	reconfigPerSlotFlag = flag.Int("reconfig-perslot", core.DefaultReconfigCost.PerSlot, "register-load slots charged per TDM slot entry at a /session phase boundary")
	reconfigBarrierFlag = flag.Int("reconfig-barrier", core.DefaultReconfigCost.Barrier, "barrier slots charged when any register write occurs at a /session phase boundary")

	selfFlag        = flag.String("self", "", "this node's advertised base URL in cluster mode (e.g. http://10.0.0.1:8080)")
	peersFlag       = flag.String("peers", "", "comma-separated base URLs of every cluster member including self; empty = standalone")
	replicationFlag = flag.Int("replication", cluster.DefaultReplication, "cluster replica set size per key (owner + R-1 gossip replicas)")
	gossipFlag      = flag.Duration("gossip-interval", cluster.DefaultGossipInterval, "cluster probe + anti-entropy period")
	vnodesFlag      = flag.Int("vnodes", cluster.DefaultVNodes, "consistent-hash virtual nodes per member")
)

func main() {
	flag.Parse()
	log.SetPrefix("ccserved: ")
	log.SetFlags(log.LstdFlags)

	topo, err := topology.Parse(*topologyFlag)
	check(err)
	sched, err := schedule.ParseScheduler(*algFlag)
	check(err)
	classes, err := qos.ParseClasses(*qosFlag)
	check(err)

	svc, err := service.New(service.Config{
		Topology:        topo,
		Scheduler:       sched,
		Workers:         *workersFlag,
		QueueDepth:      *queueFlag,
		CacheEntries:    *cacheFlag,
		RetryAfter:      *retryFlag,
		QoS:             classes,
		EnablePprof:     *pprofFlag,
		StoreDir:        *storeDirFlag,
		StoreMaxEntries: *storeMaxFlag,
		StoreMaxAge:     *storeAgeFlag,
		DeltaBound:      *deltaBoundFlag,
		Reconfig:        core.ReconfigCost{PerSlot: *reconfigPerSlotFlag, Barrier: *reconfigBarrierFlag},
	})
	check(err)
	if *storeDirFlag != "" {
		log.Printf("schedule store at %s", *storeDirFlag)
	}
	for _, c := range classes {
		log.Printf("qos class %s", c)
	}

	var handler http.Handler = svc
	var node *cluster.Node
	if *peersFlag != "" {
		if *selfFlag == "" {
			check(errors.New("-peers requires -self (this node's advertised URL)"))
		}
		node, err = cluster.NewNode(svc, cluster.Config{
			Self:           *selfFlag,
			Peers:          strings.Split(*peersFlag, ","),
			Replication:    *replicationFlag,
			VNodes:         *vnodesFlag,
			GossipInterval: *gossipFlag,
			Logf:           log.Printf,
		})
		check(err)
		svc.SetPeers(node)
		handler = node
		node.Start()
		log.Printf("cluster mode: self=%s peers=%d replication=%d gossip=%s",
			node.Self(), len(strings.Split(*peersFlag, ",")), node.Replication(), *gossipFlag)
	}

	ln, err := net.Listen("tcp", *addrFlag)
	check(err)
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	log.Printf("serving %s with %s on %s", topo.Name(), sched.Name(), ln.Addr())

	select {
	case err := <-done:
		check(err)
	case <-ctx.Done():
	}
	log.Printf("draining (up to %s)...", *drainFlag)
	if node != nil {
		// Advertise draining first so peers stop forwarding here, then stop
		// gossip; in-flight requests still finish below.
		node.SetDraining(true)
		node.Stop()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainFlag)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	svc.Close()
	log.Print("drained, bye")
}

func check(err error) {
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "ccserved:", err)
		os.Exit(1)
	}
}
