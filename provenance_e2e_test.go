package nerpa

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/ovsdb"
)

// explainNode mirrors the /debug/explain tree JSON.
type explainNode struct {
	Relation     string         `json:"relation"`
	Record       string         `json:"record"`
	Kind         string         `json:"kind"`
	Rule         string         `json:"rule,omitempty"`
	TxnID        uint64         `json:"txn_id,omitempty"`
	Alternatives int            `json:"alternatives,omitempty"`
	Children     []*explainNode `json:"children,omitempty"`
}

type explainResult struct {
	Relation string `json:"relation"`
	Key      string `json:"key,omitempty"`
	Entry    *struct {
		Table    string `json:"table"`
		Matches  string `json:"matches"`
		Action   string `json:"action"`
		Relation string `json:"relation"`
		Record   string `json:"record"`
		TxnID    uint64 `json:"txn_id"`
		Source   string `json:"source"`
	} `json:"entry,omitempty"`
	Tree *explainNode `json:"tree"`
}

// collectLeaves gathers a tree's leaf nodes.
func collectLeaves(n *explainNode, out *[]*explainNode) {
	if len(n.Children) == 0 {
		*out = append(*out, n)
		return
	}
	for _, ch := range n.Children {
		collectLeaves(ch, out)
	}
}

// TestProvenanceExplainE2E is the paper's provenance walk end to end: an
// OVSDB row is inserted, the controller derives and pushes a P4 table
// entry, and /debug/explain on that entry returns a derivation tree
// whose leaves are exactly the inserted management-plane row, annotated
// with the transaction that committed it.
func TestProvenanceExplainE2E(t *testing.T) {
	o, s := startObservedStack(t)
	txn := s.DB.LastTxnID()
	if txn == 0 {
		t.Fatal("no transaction committed")
	}

	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	// Health endpoints: the controller signaled readiness after its
	// initial sync, well before WaitEntries converged.
	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body := get("/readyz"); code != 200 {
		t.Fatalf("/readyz = %d %q, want 200 after initial sync", code, body)
	}

	// The trace filter resolves the committing transaction. The switch
	// holds the entry (WaitEntries above) before the controller's write
	// returns and the push stage is recorded, so wait for the stage.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		code, body := get(fmt.Sprintf("/debug/traces?txn=%d", txn))
		if code == 200 && strings.Contains(body, `"name": "push"`) {
			break
		}
		if code != 200 || time.Now().After(deadline) {
			t.Fatalf("/debug/traces?txn=%d = %d: %s", txn, code, body)
		}
	}

	// Explain the pushed table entry. The in_vlan table holds exactly one
	// entry, so no key is needed.
	code, body := get("/debug/explain?relation=in_vlan")
	if code != 200 {
		t.Fatalf("/debug/explain?relation=in_vlan = %d: %s", code, body)
	}
	var res explainResult
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatalf("decoding explain response: %v\n%s", err, body)
	}
	if res.Entry == nil {
		t.Fatalf("explain response has no entry envelope: %s", body)
	}
	if res.Entry.Table != "in_vlan" || res.Entry.Relation != "InVlan" {
		t.Fatalf("entry = %+v, want table in_vlan from relation InVlan", res.Entry)
	}
	if res.Entry.TxnID != txn || res.Entry.Source != "ovsdb" {
		t.Fatalf("entry pushed by txn %d (%s), want %d (ovsdb)", res.Entry.TxnID, res.Entry.Source, txn)
	}
	if res.Tree == nil {
		t.Fatalf("explain response has no tree: %s", body)
	}
	if res.Tree.Relation != "InVlan" || res.Tree.Kind != "derived" {
		t.Fatalf("tree root = %+v, want derived InVlan fact", res.Tree)
	}
	if !strings.Contains(res.Tree.Rule, "InVlan") || !strings.Contains(res.Tree.Rule, "Port") {
		t.Fatalf("root rule = %q, want the InVlan :- Port rule", res.Tree.Rule)
	}

	// The leaves are exactly the inserted OVSDB row: one Port input fact,
	// carrying the committing transaction's ID.
	var leaves []*explainNode
	collectLeaves(res.Tree, &leaves)
	if len(leaves) != 1 {
		t.Fatalf("derivation tree has %d leaves, want exactly 1 (the Port row): %s", len(leaves), body)
	}
	leaf := leaves[0]
	if leaf.Relation != "Port" || leaf.Kind != "input" {
		t.Fatalf("leaf = %+v, want Port input fact", leaf)
	}
	if !strings.Contains(leaf.Record, `"p1"`) {
		t.Fatalf("leaf record = %q, want the inserted row p1", leaf.Record)
	}
	if leaf.TxnID != txn {
		t.Fatalf("leaf txn_id = %d, want committing txn %d", leaf.TxnID, txn)
	}

	// The same fact is explainable by relation+record directly.
	code, body = get("/debug/explain?relation=InVlan&key=" + url.QueryEscape(res.Tree.Record))
	if code != 200 {
		t.Fatalf("explain by relation = %d: %s", code, body)
	}

	// And the input row itself resolves to a single annotated leaf.
	code, body = get("/debug/explain?relation=Port&key=" + url.QueryEscape(leaf.Record))
	if code != 200 {
		t.Fatalf("explain input = %d: %s", code, body)
	}
	var inputRes explainResult
	if err := json.Unmarshal([]byte(body), &inputRes); err != nil {
		t.Fatal(err)
	}
	if inputRes.Tree.Kind != "input" || inputRes.Tree.TxnID != txn {
		t.Fatalf("input explain tree = %+v, want input leaf with txn %d", inputRes.Tree, txn)
	}

	// Unknown subjects 404.
	if code, _ := get("/debug/explain?relation=in_vlan&key=nosuch"); code != http.StatusNotFound {
		t.Fatalf("unknown key = %d, want 404", code)
	}
	if code, _ := get("/debug/explain?relation=NoSuchRel"); code != http.StatusNotFound {
		t.Fatalf("unknown relation = %d, want 404", code)
	}

	// obs_provenance_* gauges are exposed and non-zero.
	if code, body := get("/metrics"); code != 200 ||
		!strings.Contains(body, "obs_provenance_facts") ||
		!strings.Contains(body, "obs_provenance_entries") {
		t.Fatalf("/metrics missing obs_provenance_* gauges (code %d)", code)
	}
}

// TestProvenanceRetractionE2E retracts the management-plane row and
// checks the entry's provenance disappears with it.
func TestProvenanceRetractionE2E(t *testing.T) {
	o, s := startObservedStack(t)
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	if err := s.Transact(ovsdb.OpDelete("Port", ovsdb.Cond("name", "==", "p1"))); err != nil {
		t.Fatal(err)
	}
	// The monitor delivers the delete apart from the commit's reply: once
	// the switch dropped the entry the loop holds the delete, and a
	// barrier then runs after its origins are settled.
	if err := s.WaitEntries("snvs0", "in_vlan", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/debug/explain?relation=in_vlan")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("explain after retraction = %d, want 404: %s", resp.StatusCode, body)
	}
}
