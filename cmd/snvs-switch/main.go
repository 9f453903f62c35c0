// Command snvs-switch runs the behavioral software switch (the BMv2
// stand-in) and serves its P4Runtime-style control API.
//
//	snvs-switch -p4rt 127.0.0.1:9559 [-p4 program.p4] [-name sw0]
//
// With -p4 it executes the given P4-subset program; without, the built-in
// snvs pipeline. Packets can be injected through the control API's
// packet-out; in-process deployments (examples, benchmarks) attach hosts
// through a switchsim.Fabric instead.
package main

import (
	"errors"
	"flag"
	"log"
	"net"
	"os"

	"repro/internal/obs"
	"repro/internal/p4"
	"repro/internal/snvs"
	"repro/internal/switchsim"
)

func main() {
	addr := flag.String("p4rt", "127.0.0.1:9559", "P4Runtime TCP listen address")
	p4Path := flag.String("p4", "", "P4 subset program file (default: built-in snvs.p4)")
	name := flag.String("name", "snvs0", "switch name")
	obsFlags := obs.RegisterFlags(flag.CommandLine)
	keepalive := flag.Duration("keepalive", 0, "echo-heartbeat interval on accepted connections; 3 misses fail one (0 = off)")
	flag.Parse()

	var prog *p4.Program
	if *p4Path != "" {
		src, err := os.ReadFile(*p4Path)
		if err != nil {
			log.Fatalf("reading program: %v", err)
		}
		prog, err = p4.ParseProgram(*name, string(src))
		if err != nil {
			log.Fatalf("parsing program: %v", err)
		}
	} else {
		prog = snvs.Pipeline()
	}

	sw, err := switchsim.New(*name, switchsim.Config{Program: prog})
	if err != nil {
		log.Fatalf("creating switch: %v", err)
	}
	sw.SetKeepalive(*keepalive)
	observer := obsFlags.Start("snvs-switch", "switchsim")
	if observer != nil {
		sw.SetObs(observer)
		// Ready once the pipeline is loaded, which New already did.
		observer.SetReady(true)
	}
	drained := observer.DrainOnSignal("snvs-switch")
	go func() {
		<-drained
		sw.Close()
	}()

	log.Printf("snvs-switch: %s running %q, p4rt on %s", *name, prog.Name, *addr)
	if err := sw.ListenAndServe(*addr); err != nil && !errors.Is(err, net.ErrClosed) {
		log.Fatalf("serve: %v", err)
	}
	log.Printf("snvs-switch: stopped")
}
