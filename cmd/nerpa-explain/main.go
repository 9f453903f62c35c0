// Command nerpa-explain asks a running process's observability endpoint
// "why is this entry in the switch?" and pretty-prints the answer: the
// pushed table entry (if the query named a P4 table), the rule chain
// that derived its source fact, and the management-plane rows — with
// their originating transaction IDs — at the leaves.
//
//	nerpa-explain -addr 127.0.0.1:8080 -relation in_vlan
//	nerpa-explain -addr 127.0.0.1:8080 -relation in_vlan -key 'vlan.port=1'
//	nerpa-explain -addr 127.0.0.1:8080 -relation InVlan -key '(1, 10)' -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
)

// explainNode mirrors engine.ExplainNode's JSON.
type explainNode struct {
	Relation     string         `json:"relation"`
	Record       string         `json:"record"`
	Kind         string         `json:"kind"`
	Rule         string         `json:"rule,omitempty"`
	Stratum      int            `json:"stratum,omitempty"`
	TxnID        uint64         `json:"txn_id,omitempty"`
	Alternatives int            `json:"alternatives,omitempty"`
	Truncated    bool           `json:"truncated,omitempty"`
	Children     []*explainNode `json:"children,omitempty"`
}

// explainEntry mirrors core.EntryOrigin's JSON.
type explainEntry struct {
	Table    string `json:"table"`
	Device   string `json:"device,omitempty"`
	Matches  string `json:"matches"`
	Action   string `json:"action"`
	Relation string `json:"relation"`
	Record   string `json:"record"`
	TxnID    uint64 `json:"txn_id,omitempty"`
	Source   string `json:"source,omitempty"`
}

// explainResult mirrors core.ExplainResult's JSON.
type explainResult struct {
	Relation string        `json:"relation"`
	Key      string        `json:"key,omitempty"`
	Entry    *explainEntry `json:"entry,omitempty"`
	Tree     *explainNode  `json:"tree"`
}

// render pretty-prints one explain result as an indented derivation
// tree.
func render(w io.Writer, res *explainResult) {
	if e := res.Entry; e != nil {
		dev := ""
		if e.Device != "" {
			dev = " on " + e.Device
		}
		fmt.Fprintf(w, "table %s%s: %s -> %s\n", e.Table, dev, e.Matches, e.Action)
		fmt.Fprintf(w, "  pushed from %s%s by txn %d (%s)\n", e.Relation, e.Record, e.TxnID, e.Source)
	}
	if res.Tree != nil {
		renderNode(w, res.Tree, "", "")
	}
}

// renderNode prints n at the given indentation and recurses into its
// children with box-drawing connectors.
func renderNode(w io.Writer, n *explainNode, connector, childPrefix string) {
	var note string
	switch n.Kind {
	case "input":
		if n.TxnID != 0 {
			note = fmt.Sprintf("  [input, txn %d]", n.TxnID)
		} else {
			note = "  [input]"
		}
	case "unknown":
		note = "  [provenance unavailable]"
	case "cycle":
		note = "  [cycle]"
	default:
		var parts []string
		if n.Rule != "" {
			parts = append(parts, "rule: "+n.Rule)
		}
		if n.Alternatives > 0 {
			parts = append(parts, fmt.Sprintf("+%d alternative derivation(s)", n.Alternatives))
		}
		if len(parts) > 0 {
			note = "  [" + strings.Join(parts, "; ") + "]"
		}
	}
	if n.Truncated {
		note += "  [truncated]"
	}
	fmt.Fprintf(w, "%s%s%s%s\n", connector, n.Relation, n.Record, note)
	for i, ch := range n.Children {
		conn, prefix := childPrefix+"├── ", childPrefix+"│   "
		if i == len(n.Children)-1 {
			conn, prefix = childPrefix+"└── ", childPrefix+"    "
		}
		renderNode(w, ch, conn, prefix)
	}
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "observability address of the target process (-obs-addr)")
	relation := flag.String("relation", "", "P4 table, derived relation, or input relation to explain (required)")
	key := flag.String("key", "", "entry match rendering or record rendering (optional when unique)")
	depth := flag.Int("depth", 0, "maximum derivation tree depth (0 = server default)")
	rawJSON := flag.Bool("json", false, "print the raw JSON response instead of the tree")
	flag.Parse()
	if *relation == "" {
		flag.Usage()
		os.Exit(2)
	}

	q := url.Values{"relation": {*relation}}
	if *key != "" {
		q.Set("key", *key)
	}
	if *depth > 0 {
		q.Set("depth", strconv.Itoa(*depth))
	}
	u := "http://" + *addr + "/debug/explain?" + q.Encode()
	resp, err := http.Get(u)
	if err != nil {
		log.Fatalf("nerpa-explain: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatalf("nerpa-explain: reading response: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("nerpa-explain: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	if *rawJSON {
		os.Stdout.Write(body)
		return
	}
	var res explainResult
	if err := json.Unmarshal(body, &res); err != nil {
		log.Fatalf("nerpa-explain: decoding response: %v", err)
	}
	render(os.Stdout, &res)
}
