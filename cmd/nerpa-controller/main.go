// Command nerpa-controller runs the full-stack SDN controller: it
// connects to the management plane (OVSDB) and one or more data planes
// (P4Runtime), generates and type-checks the cross-plane program, and
// synchronizes state incrementally until interrupted.
//
//	nerpa-controller -ovsdb 127.0.0.1:6640 -db snvs \
//	    -p4rt 127.0.0.1:9559[,more...] [-rules rules.dl] [-obs-addr 127.0.0.1:8080]
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/ovsdb"
	"repro/internal/p4rt"
	"repro/internal/snvs"
	"repro/internal/subscribe"
)

func main() {
	ovsdbAddr := flag.String("ovsdb", "127.0.0.1:6640", "OVSDB server address")
	dbName := flag.String("db", "snvs", "database name")
	p4rtAddrs := flag.String("p4rt", "127.0.0.1:9559", "comma-separated P4Runtime addresses")
	rulesPath := flag.String("rules", "", "control-plane rules file (default: built-in snvs rules)")
	obsFlags := obs.RegisterFlags(flag.CommandLine)
	subAddr := flag.String("sub-addr", "", "serve derived-relation subscriptions (nerpa-watch clients) on this address (off when empty)")
	subQueue := flag.Int("sub-queue", 0, "per-subscriber bound on updates published and not yet sent; reaching it evicts the subscriber (0 = default 256)")
	reconnectBackoff := flag.Duration("reconnect-backoff", 5*time.Second, "maximum redial backoff after a connection drops (must be positive)")
	rpcTimeout := flag.Duration("rpc-timeout", 30*time.Second, "per-RPC deadline on OVSDB and P4Runtime calls (0 = none)")
	keepalive := flag.Duration("keepalive", 10*time.Second, "echo-heartbeat interval on every connection; 3 misses fail it (0 = off)")
	coalesceTxns := flag.Int("coalesce-max-txns", 1, "merge up to this many queued OVSDB commits or digest lists into one engine transaction (<=1 disables coalescing)")
	coalesceUpdates := flag.Int("coalesce-max-updates", 0, "flush a merged batch once it carries this many input updates (0 = default 1024)")
	flag.Parse()
	if *reconnectBackoff <= 0 {
		log.Fatalf("-reconnect-backoff must be positive, got %v", *reconnectBackoff)
	}

	observer := obsFlags.Start("nerpa-controller", "controller")

	rules := snvs.Rules
	if *rulesPath != "" {
		data, err := os.ReadFile(*rulesPath)
		if err != nil {
			log.Fatalf("reading rules: %v", err)
		}
		rules = string(data)
	}

	// Connections self-heal: they redial with jittered exponential
	// backoff, re-establish monitors and sessions, and resynchronize
	// state, so a bounced ovsdb-server or switch is an outage, not a
	// controller restart.
	mp, err := ovsdb.DialResilient(ovsdb.ResilientConfig{
		Addr:              *ovsdbAddr,
		BackoffMax:        *reconnectBackoff,
		CallTimeout:       *rpcTimeout,
		KeepaliveInterval: *keepalive,
		Obs:               observer,
	})
	if err != nil {
		log.Fatalf("connecting to OVSDB at %s: %v", *ovsdbAddr, err)
	}
	defer mp.Close()

	var devices []core.DataPlane
	for _, addr := range strings.Split(*p4rtAddrs, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		rc, err := p4rt.DialResilient(p4rt.ResilientConfig{
			Addr:              addr,
			Target:            fmt.Sprintf("dev%d", len(devices)),
			BackoffMax:        *reconnectBackoff,
			CallTimeout:       *rpcTimeout,
			KeepaliveInterval: *keepalive,
			Obs:               observer,
		})
		if err != nil {
			log.Fatalf("connecting to data plane at %s: %v", addr, err)
		}
		defer rc.Close()
		devices = append(devices, rc)
	}

	cfg := core.Config{
		Rules: rules, Database: *dbName, Obs: observer,
		CoalesceMaxTxns:    *coalesceTxns,
		CoalesceMaxUpdates: *coalesceUpdates,
	}
	var subSvc *subscribe.Service
	if *subAddr != "" {
		subSvc = subscribe.New(subscribe.Config{
			QueueLen: *subQueue,
			Obs:      observer,
		})
		subSvc.SetKeepalive(*keepalive)
		defer subSvc.Close()
		cfg.OnDelta = subSvc.Publish
	}
	ctrl, err := core.New(cfg, mp, devices...)
	if err != nil {
		log.Fatalf("starting controller: %v", err)
	}
	if subSvc != nil {
		subSvc.SetCatalog(ctrl.OutputRelations())
		ln, err := net.Listen("tcp", *subAddr)
		if err != nil {
			log.Fatalf("subscription listener on %s: %v", *subAddr, err)
		}
		go func() {
			if err := subSvc.Serve(ln); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Fatalf("subscription server: %v", err)
			}
		}()
		log.Printf("nerpa-controller: serving derived-relation subscriptions on %s", *subAddr)
	}
	log.Printf("nerpa-controller: managing %q across %d data plane(s)", *dbName, len(devices))

	select {
	case <-observer.DrainOnSignal("nerpa-controller"):
		ctrl.Stop()
	case <-ctrl.Done():
		if err := ctrl.Err(); err != nil {
			log.Fatalf("controller failed: %v", err)
		}
	}
}
