// Command ovsdb-server hosts an OVSDB management-plane database over TCP.
//
// With -schema it serves a database for the given .ovsschema file;
// without, it serves the built-in snvs schema.
//
//	ovsdb-server -addr 127.0.0.1:6640 [-schema file.ovsschema]
package main

import (
	"errors"
	"flag"
	"log"
	"net"
	"os"

	"repro/internal/obs"
	"repro/internal/ovsdb"
	"repro/internal/ovsdb/wal"
	"repro/internal/snvs"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:6640", "TCP listen address")
	schemaPath := flag.String("schema", "", ".ovsschema file (default: built-in snvs schema)")
	obsFlags := obs.RegisterFlags(flag.CommandLine)
	keepalive := flag.Duration("keepalive", 0, "echo-heartbeat interval on accepted connections; 3 misses fail one (0 = off)")
	walDir := flag.String("wal-dir", "", "write-ahead-log directory: commits become durable and state survives restarts (empty = memory-only)")
	walFsync := flag.String("wal-fsync", wal.FsyncCommit, "WAL durability policy: commit (group fsync per commit batch) or off (OS-buffered)")
	snapshotEvery := flag.Int("snapshot-every", 0, "WAL records between snapshot compactions (0 = default 8192, negative = never)")
	flag.Parse()

	var schema *ovsdb.DatabaseSchema
	var err error
	if *schemaPath != "" {
		data, rerr := os.ReadFile(*schemaPath)
		if rerr != nil {
			log.Fatalf("reading schema: %v", rerr)
		}
		schema, err = ovsdb.ParseSchema(data)
	} else {
		schema, err = snvs.Schema()
	}
	if err != nil {
		log.Fatalf("parsing schema: %v", err)
	}

	db := ovsdb.NewDatabase(schema)
	observer := obsFlags.Start("ovsdb-server", "ovsdb")
	if observer != nil {
		db.SetObs(observer)
		// The server is ready as soon as its listener accepts: the database
		// is in-memory and fully initialized before serving starts.
		observer.SetReady(true)
	}

	// Open the WAL after the observer exists so recovery and appends are
	// instrumented. Recovery replays the snapshot plus the log tail into
	// the empty database and seeds its txn counter before serving starts.
	var walLog *wal.Log
	if *walDir != "" {
		l, recovered, werr := wal.Open(wal.Options{
			Dir:           *walDir,
			Fsync:         *walFsync,
			SnapshotEvery: *snapshotEvery,
			Obs:           observer,
		})
		if werr != nil {
			log.Fatalf("opening wal: %v", werr)
		}
		if rerr := db.Restore(recovered); rerr != nil {
			log.Fatalf("restoring from wal: %v", rerr)
		}
		db.AttachWAL(l)
		walLog = l
		log.Printf("ovsdb-server: wal %s recovered to txn %d (%d tail records)",
			*walDir, recovered.LastTxn, len(recovered.Tail))
	}

	srv := ovsdb.NewServer(db)
	srv.SetObs(observer, "ovsdb")
	srv.SetKeepalive(*keepalive)
	drained := observer.DrainOnSignal("ovsdb-server")
	go func() {
		<-drained
		srv.Close()
	}()

	log.Printf("ovsdb-server: serving database %q on %s", schema.Name, *addr)
	if err := srv.ListenAndServe(*addr); err != nil && !errors.Is(err, net.ErrClosed) {
		log.Fatalf("serve: %v", err)
	}
	if walLog != nil {
		if err := walLog.Close(); err != nil {
			log.Printf("ovsdb-server: wal close: %v", err)
		}
	}
	log.Printf("ovsdb-server: stopped")
}
