// Command nerpa-watch streams a derived relation from a running
// nerpa-controller: it subscribes over the controller's -sub-addr
// endpoint, prints the initial snapshot, then follows the incremental
// deltas with their originating transaction IDs. If the controller
// evicts it as a slow consumer, it resubscribes and resumes from a
// fresh snapshot.
//
//	nerpa-watch -addr 127.0.0.1:7659 Flood
//	nerpa-watch -addr 127.0.0.1:7659 -filter 1=10 InVlan
//	nerpa-watch -addr 127.0.0.1:7659 -list
//
// -filter restricts the stream server-side to rows whose column (by
// zero-based index) equals a scalar: numbers and true/false compare
// against int/bit/bool columns, anything else as a string.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/subscribe"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7659", "controller subscription address (-sub-addr)")
	list := flag.Bool("list", false, "list subscribable relations and exit")
	filterSpec := flag.String("filter", "", "comma-separated col=value equality filters (e.g. 0=5,2=eth0)")
	asJSON := flag.Bool("json", false, "emit one JSON object per line instead of the human form")
	keepalive := flag.Duration("keepalive", 10*time.Second, "echo-heartbeat interval; 3 misses fail the connection (0 = off)")
	flag.Parse()

	cl, err := subscribe.Dial(*addr)
	if err != nil {
		log.Fatalf("nerpa-watch: connecting to %s: %v", *addr, err)
	}
	defer cl.Close()
	if *keepalive > 0 {
		cl.Conn().StartKeepalive(*keepalive)
	}

	if *list {
		rels, err := cl.Relations()
		if err != nil {
			log.Fatalf("nerpa-watch: listing relations: %v", err)
		}
		for _, r := range rels {
			fmt.Println(r)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "nerpa-watch: exactly one relation required (or -list); see -h")
		os.Exit(2)
	}
	relation := flag.Arg(0)
	filter, err := parseFilter(*filterSpec)
	if err != nil {
		log.Fatalf("nerpa-watch: %v", err)
	}

	// The watch loop: each pass subscribes (a fresh snapshot), then
	// follows deltas until the stream ends. Eviction — the controller
	// dropped us for falling behind — loops back into a resubscribe;
	// anything else (connection loss, unsubscribe) is terminal.
	for {
		sub, err := cl.Subscribe(relation, filter)
		if err != nil {
			log.Fatalf("nerpa-watch: subscribing to %s: %v", relation, err)
		}
		printSnapshot(sub, *asJSON)
		for u := range sub.Updates {
			printUpdate(relation, u, *asJSON)
		}
		evicted, reason := sub.Evicted()
		if !evicted {
			if err := cl.Conn().Err(); err != nil {
				log.Fatalf("nerpa-watch: connection lost: %v", err)
			}
			return
		}
		log.Printf("nerpa-watch: evicted (%s); resubscribing for a fresh snapshot", reason)
	}
}

// parseFilter converts "0=5,2=eth0" into the client filter map.
func parseFilter(spec string) (map[int]any, error) {
	if spec == "" {
		return nil, nil
	}
	filter := make(map[int]any)
	for _, part := range strings.Split(spec, ",") {
		col, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad filter %q: want col=value", part)
		}
		idx, err := strconv.Atoi(col)
		if err != nil || idx < 0 {
			return nil, fmt.Errorf("bad filter column %q: want a non-negative index", col)
		}
		filter[idx] = parseScalar(val)
	}
	return filter, nil
}

// parseScalar maps a CLI literal onto the matching JSON scalar.
func parseScalar(s string) any {
	if n, err := strconv.ParseFloat(s, 64); err == nil {
		return n
	}
	if b, err := strconv.ParseBool(s); err == nil {
		return b
	}
	return s
}

func printSnapshot(sub *subscribe.Subscription, asJSON bool) {
	if asJSON {
		emit(map[string]any{
			"snapshot": true, "relation": sub.Relation,
			"txn": sub.Txn, "rows": sub.Rows,
		})
		return
	}
	log.Printf("nerpa-watch: %s snapshot at txn %d (%d rows)",
		sub.Relation, sub.Txn, len(sub.Rows))
	for _, c := range sub.Rows {
		fmt.Printf("  %s\n", renderChange(c))
	}
}

func printUpdate(relation string, u subscribe.Update, asJSON bool) {
	if asJSON {
		emit(map[string]any{"relation": relation, "txn": u.Txn, "changes": u.Changes})
		return
	}
	// A delta no commit produced carries txn 0: a data-plane digest's (MAC
	// learning), or the controller's initial sync or reconciliation.
	at := "txn " + strconv.FormatUint(u.Txn, 10)
	if u.Txn == 0 {
		at = "no txn"
	}
	for _, c := range u.Changes {
		fmt.Printf("%-10s %s  %s\n", at, relation, renderChange(c))
	}
}

// renderChange formats one weighted row: +[...] inserts, -[...]
// deletes, with the multiplicity spelled out when it exceeds one.
func renderChange(c subscribe.Change) string {
	row, _ := json.Marshal(c.Row)
	switch {
	case c.W == 1:
		return "+" + string(row)
	case c.W == -1:
		return "-" + string(row)
	case c.W >= 0:
		return fmt.Sprintf("+%d×%s", c.W, row)
	default:
		return fmt.Sprintf("-%d×%s", -c.W, row)
	}
}

func emit(v any) {
	b, _ := json.Marshal(v)
	fmt.Println(string(b))
}
