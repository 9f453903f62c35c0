package obs

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Explainer answers /debug/explain queries. The controller implements it
// by resolving the query against the engine's provenance store and its
// own cross-plane origin maps.
type Explainer interface {
	// Explain resolves relation (a Datalog relation or a P4 table name)
	// and key (a record or match rendering; may be empty when unique)
	// into a JSON-marshalable derivation tree. maxDepth/maxNodes <= 0
	// select implementation defaults. An error wrapping ErrNotFound maps
	// to HTTP 404; any other error to 400.
	Explain(relation, key string, maxDepth, maxNodes int) (any, error)
}

// ErrNotFound marks an explain query whose subject does not exist (or is
// no longer recorded).
var ErrNotFound = errors.New("not found")

// Observer bundles the metrics registry, the transaction tracer, and
// the flight-recorder state (event ring, incident store, metrics
// history, stall watchdog) that one process threads through its planes,
// plus the process-level health state the HTTP surface exposes. A nil
// *Observer is the disabled state: Reg(), Tr(), Rec() etc. return nil,
// which cascades into no-op instruments everywhere downstream, and the
// setters are no-ops.
type Observer struct {
	Registry *Registry
	Tracer   *Tracer
	// Recorder is the flight-recorder event ring, eventRingSize events
	// deep on every observer (a nil observer's Rec() is nil, and all emit
	// sites are nil-safe).
	Recorder *Recorder
	// Incidents pins slow-transaction captures (nil = capture disabled).
	Incidents *IncidentStore
	// History holds the sampled metrics rings (nil = history disabled).
	History *History
	// Watchdog derives stall state from History on each sampler tick.
	Watchdog *Watchdog
	// Profiler aggregates per-rule workload attribution and memory
	// snapshots (nil = profiling surface disabled).
	Profiler *RuleProfiler

	// ready is the /readyz state: set by the process once its planes are
	// established (for the controller: OVSDB monitor up and the initial
	// sync pushed).
	ready atomic.Bool
	// draining flips /readyz to 503 ahead of listener close so load
	// balancers stop routing before in-flight work is cut off.
	draining atomic.Bool
	// stall holds the watchdog's current reason string ("" = healthy).
	stall atomic.Value
	// degraded holds per-connection outage reasons keyed by connection
	// name (e.g. "ovsdb", a device id). While non-empty, /readyz answers
	// 503 "degraded": the process is alive and self-healing, but not
	// currently holding all planes in sync.
	degradedMu sync.Mutex
	degraded   map[string]string
	// budget holds the slow-transaction budget in nanoseconds.
	budget atomic.Int64
	// expl holds the registered Explainer (nil until a provenance-capable
	// component wires itself in).
	expl atomic.Value
	// identity holds the process Identity stamped onto every HTTP
	// response (zero until SetIdentity).
	identity atomic.Value
	// start anchors the process's monotonic clock: it is captured at
	// observer creation and carries Go's monotonic reading, so
	// time.Since(start) is immune to wall-clock steps.
	start time.Time
	// readyDetail holds appended readiness-detail callbacks (see
	// AddReadyDetail).
	readyDetailMu sync.Mutex
	readyDetail   []func() string

	// extra holds late-registered debug handlers (see RegisterDebug);
	// consulted by the Handler wrapper before the fixed mux.
	extraMu sync.RWMutex
	extra   map[string]http.Handler

	mIncidents *Counter
	mStalled   *Gauge
}

// Identity names the process behind an obs endpoint: which plane it
// implements (ovsdb, controller, switchsim, ...), a fleet-unique
// instance ID, and when it started. Aggregators use it to attribute
// scraped traces and metrics to fleet members and to correct for
// wall-clock skew between hosts.
type Identity struct {
	Plane    string    `json:"plane"`
	Instance string    `json:"instance"`
	Start    time.Time `json:"start"`
}

// NewObserver creates an enabled observer with default-sized registry,
// tracer, event ring, incident store, history and watchdog.
func NewObserver() *Observer {
	o := &Observer{
		Registry:  NewRegistry(),
		Tracer:    NewTracer(0),
		Recorder:  NewRecorder(eventRingSize),
		Incidents: newIncidentStore(),
		History:   newHistory(),
		Watchdog:  newWatchdog(),
		Profiler:  newRuleProfiler(),
		start:     time.Now(),
	}
	// Scrape-time callback off the ring's own sequence counter: the
	// append hot path pays no separate metrics atomic.
	o.Registry.CounterFunc("obs_events_total",
		"Flight-recorder events appended (including since-evicted ones).",
		o.Recorder.Total)
	o.mIncidents = o.Registry.Counter("obs_incidents_total",
		"Slow-transaction incidents pinned by budget checks.")
	o.mStalled = o.Registry.Gauge("obs_watchdog_stalled",
		"1 while the stall watchdog reports a wedge, else 0.")
	o.Tracer.convergence = o.Registry.Histogram("obs_convergence_seconds",
		"End-to-end commit-to-switch-applied latency per transaction (the full-stack convergence SLO; observed when one tracer sees both stages).", nil)
	return o
}

// Reg returns the registry (nil when the observer is disabled).
func (o *Observer) Reg() *Registry {
	if o == nil {
		return nil
	}
	return o.Registry
}

// Tr returns the tracer (nil when the observer is disabled).
func (o *Observer) Tr() *Tracer {
	if o == nil {
		return nil
	}
	return o.Tracer
}

// Rec returns the flight recorder (nil when disabled; a nil *Recorder
// no-ops Append, so emit sites never check).
func (o *Observer) Rec() *Recorder {
	if o == nil {
		return nil
	}
	return o.Recorder
}

// Inc returns the incident store (nil when disabled).
func (o *Observer) Inc() *IncidentStore {
	if o == nil {
		return nil
	}
	return o.Incidents
}

// SetDraining marks the process as shutting down: /readyz answers 503
// "draining" from now on, regardless of the ready flag. Nil-safe.
func (o *Observer) SetDraining() {
	if o == nil {
		return
	}
	o.draining.Store(true)
}

// Draining reports whether shutdown drain has begun.
func (o *Observer) Draining() bool {
	if o == nil {
		return false
	}
	return o.draining.Load()
}

// SetReady flips the /readyz state. Nil-safe.
func (o *Observer) SetReady(ready bool) {
	if o == nil {
		return
	}
	o.ready.Store(ready)
}

// Ready reports the current /readyz state (false when disabled).
func (o *Observer) Ready() bool {
	if o == nil {
		return false
	}
	return o.ready.Load()
}

// SetDegraded records that the connection named key is down or
// resyncing, with a human-readable reason. While any key is degraded,
// /readyz answers 503 "degraded: ..." so orchestrators stop routing new
// work at a process that cannot currently apply it everywhere. Nil-safe.
func (o *Observer) SetDegraded(key, reason string) {
	if o == nil || key == "" {
		return
	}
	o.degradedMu.Lock()
	if o.degraded == nil {
		o.degraded = make(map[string]string)
	}
	o.degraded[key] = reason
	o.degradedMu.Unlock()
}

// ClearDegraded removes key from the degraded set (no-op if absent).
// Nil-safe.
func (o *Observer) ClearDegraded(key string) {
	if o == nil {
		return
	}
	o.degradedMu.Lock()
	delete(o.degraded, key)
	o.degradedMu.Unlock()
}

// DegradedReasons returns the current degraded set rendered as
// "key: reason" strings in key order ("" entries render as the bare
// key). Empty when healthy or when the observer is disabled.
func (o *Observer) DegradedReasons() []string {
	if o == nil {
		return nil
	}
	o.degradedMu.Lock()
	defer o.degradedMu.Unlock()
	if len(o.degraded) == 0 {
		return nil
	}
	out := make([]string, 0, len(o.degraded))
	for k, v := range o.degraded {
		if v == "" {
			out = append(out, k)
		} else {
			out = append(out, k+": "+v)
		}
	}
	sort.Strings(out)
	return out
}

// SetIdentity names this process for fleet attribution: plane is the
// layer it implements ("ovsdb", "controller", "switchsim", ...),
// instance a fleet-unique ID (defaulting to plane when empty). Every
// HTTP response then carries X-Obs-Plane / X-Obs-Instance /
// X-Obs-Start-Unix-Nano headers alongside the always-present
// X-Obs-Now-Unix-Nano / X-Obs-Mono-Ns clock anchors. Nil-safe.
func (o *Observer) SetIdentity(plane, instance string) {
	if o == nil {
		return
	}
	if instance == "" {
		instance = plane
	}
	o.identity.Store(Identity{Plane: plane, Instance: instance, Start: o.start})
}

// Identity returns the identity set by SetIdentity (zero if unset or
// the observer is disabled).
func (o *Observer) Identity() Identity {
	if o == nil {
		return Identity{}
	}
	id, _ := o.identity.Load().(Identity)
	return id
}

// AddReadyDetail registers a callback whose non-empty return is
// appended as an extra line to the healthy /readyz body — status
// detail (e.g. "wal: snapshot 312s old") that should be visible to
// probes without flipping readiness. Nil-safe.
func (o *Observer) AddReadyDetail(f func() string) {
	if o == nil || f == nil {
		return
	}
	o.readyDetailMu.Lock()
	o.readyDetail = append(o.readyDetail, f)
	o.readyDetailMu.Unlock()
}

// readyDetails collects the non-empty detail lines.
func (o *Observer) readyDetails() []string {
	if o == nil {
		return nil
	}
	o.readyDetailMu.Lock()
	fns := o.readyDetail
	o.readyDetailMu.Unlock()
	var out []string
	for _, f := range fns {
		if s := f(); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// setIdentityHeaders stamps the process-identity and clock-anchor
// headers onto one HTTP response. X-Obs-Now-Unix-Nano is the wall
// clock at response time (an NTP-style skew probe for scrapers);
// X-Obs-Mono-Ns is nanoseconds of monotonic uptime, immune to
// wall-clock steps.
func (o *Observer) setIdentityHeaders(h http.Header) {
	if o == nil {
		return
	}
	if id := o.Identity(); id.Plane != "" || id.Instance != "" {
		h.Set("X-Obs-Plane", id.Plane)
		h.Set("X-Obs-Instance", id.Instance)
		h.Set("X-Obs-Start-Unix-Nano", strconv.FormatInt(id.Start.UnixNano(), 10))
	}
	now := time.Now()
	h.Set("X-Obs-Now-Unix-Nano", strconv.FormatInt(now.UnixNano(), 10))
	if !o.start.IsZero() {
		h.Set("X-Obs-Mono-Ns", strconv.FormatInt(int64(now.Sub(o.start)), 10))
	}
}

// RegisterDebug mounts an extra handler on the observer's HTTP surface
// at the given path (e.g. "/debug/subscribers"). Components that come
// up after the HTTP listener — or that live in packages obs must not
// import — use this to publish their own debug views. Registration may
// happen before or after Handler() is called; extra paths shadow the
// fixed mux, and a later registration on the same path wins. Nil-safe:
// a nil Observer, nil handler, or empty path is a no-op.
func (o *Observer) RegisterDebug(path string, h http.Handler) {
	if o == nil || h == nil || path == "" {
		return
	}
	o.extraMu.Lock()
	if o.extra == nil {
		o.extra = make(map[string]http.Handler)
	}
	o.extra[path] = h
	o.extraMu.Unlock()
}

// debugHandler returns the extra handler registered for path, if any.
func (o *Observer) debugHandler(path string) http.Handler {
	o.extraMu.RLock()
	defer o.extraMu.RUnlock()
	return o.extra[path]
}

// SetExplainer registers the /debug/explain resolver. Nil-safe; a nil
// explainer is ignored.
func (o *Observer) SetExplainer(e Explainer) {
	if o == nil || e == nil {
		return
	}
	o.expl.Store(&e)
}

func (o *Observer) explainer() Explainer {
	if o == nil {
		return nil
	}
	if p, ok := o.expl.Load().(*Explainer); ok {
		return *p
	}
	return nil
}

// Handler returns the runtime-exposure mux:
//
//	/metrics        Prometheus text exposition of the registry
//	/healthz        liveness (200 once the process serves HTTP)
//	/readyz         readiness (503 until SetReady(true))
//	/debug/traces   transaction timelines as JSON (?txn= one transaction,
//	                404 if unknown; ?limit= caps the dump)
//	/debug/events   flight-recorder dump (?plane= ?kind= ?txn= ?since=
//	                [seq or RFC3339] ?limit=; ?format=ndjson streams one
//	                event per line)
//	/debug/incidents pinned slow-transaction captures (?txn= filters)
//	/debug/history  sampled metrics rings (?series= one series, ?limit=
//	                caps samples; without ?series= lists the available
//	                series names)
//	/debug/rules    hot-rule workload report: top-K rules by EWMA
//	                evaluation cost plus an "other" rollup (?limit=
//	                narrows K)
//	/debug/memory   per-relation memory accounting snapshot
//	/debug/explain  derivation tree of one fact or table entry
//	                (?relation= and ?key=, with ?depth=/?nodes= bounds)
//	/debug/pprof/   the standard Go profiling endpoints
//
// Extra paths mounted via RegisterDebug are served ahead of the fixed
// set above.
func (o *Observer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		o.Reg().WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if o.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		if !o.Ready() {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		if reason := o.StallReason(); reason != "" {
			http.Error(w, "stalled: "+reason, http.StatusServiceUnavailable)
			return
		}
		if reasons := o.DegradedReasons(); len(reasons) > 0 {
			http.Error(w, "degraded: "+strings.Join(reasons, "; "), http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ready\n")
		// Non-fatal status detail rides along on the healthy body.
		for _, line := range o.readyDetails() {
			io.WriteString(w, line+"\n")
		}
	})
	mux.HandleFunc("/debug/traces", o.handleTraces)
	mux.HandleFunc("/debug/events", o.handleEvents)
	mux.HandleFunc("/debug/incidents", o.handleIncidents)
	mux.HandleFunc("/debug/history", o.handleHistory)
	mux.HandleFunc("/debug/rules", o.handleRules)
	mux.HandleFunc("/debug/memory", o.handleMemory)
	mux.HandleFunc("/debug/explain", o.handleExplain)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	// Every response carries the process-identity and clock-anchor
	// headers so scrapers can attribute and skew-correct what they read.
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		o.setIdentityHeaders(w.Header())
		if h := o.debugHandler(r.URL.Path); h != nil {
			h.ServeHTTP(w, r)
			return
		}
		mux.ServeHTTP(w, r)
	})
}

// parseCount reads a non-negative integer query parameter, the first of
// names present: every /debug/* handler's result cap (?limit=, the
// documented form, or its alias ?n=) and /debug/explain's tree bounds
// (?depth=, ?nodes=). Absent means 0 (no cap, or the default bound). A
// negative or non-numeric value is a client error: parseCount answers 400
// and returns ok=false, and the handler must not write anything further.
func parseCount(w http.ResponseWriter, q url.Values, names ...string) (n int, ok bool) {
	for _, p := range names {
		s := q.Get(p)
		if s == "" {
			continue
		}
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			http.Error(w, "bad "+p+" (want non-negative integer): "+s, http.StatusBadRequest)
			return 0, false
		}
		return v, true
	}
	return 0, true
}

func (o *Observer) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if s := q.Get("txn"); s != "" {
		id, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			http.Error(w, "bad txn id: "+s, http.StatusBadRequest)
			return
		}
		tr, ok := o.Tr().Get(id)
		if !ok {
			http.Error(w, "unknown txn "+s, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		writeTraceJSON(w, tr)
		return
	}
	n, ok := parseCount(w, q, "limit", "n")
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	o.Tr().WriteJSON(w, n)
}

func (o *Observer) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := EventFilter{Plane: q.Get("plane"), Kind: q.Get("kind")}
	if s := q.Get("txn"); s != "" {
		id, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			http.Error(w, "bad txn id: "+s, http.StatusBadRequest)
			return
		}
		f.Txn = id
	}
	if s := q.Get("since"); s != "" {
		// ?since= takes either a sequence number (resume cursor) or an
		// RFC3339 timestamp.
		if seq, err := strconv.ParseUint(s, 10, 64); err == nil {
			f.SinceSeq = seq
		} else if t, err := time.Parse(time.RFC3339, s); err == nil {
			f.Since = t
		} else {
			http.Error(w, "bad since (want sequence number or RFC3339 time): "+s, http.StatusBadRequest)
			return
		}
	}
	n, ok := parseCount(w, q, "limit", "n")
	if !ok {
		return
	}
	f.Limit = n
	if q.Get("format") == "ndjson" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		o.Rec().WriteNDJSON(w, f)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	o.Rec().WriteJSON(w, f)
}

func (o *Observer) handleIncidents(w http.ResponseWriter, r *http.Request) {
	var txn uint64
	if s := r.URL.Query().Get("txn"); s != "" {
		id, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			http.Error(w, "bad txn id: "+s, http.StatusBadRequest)
			return
		}
		txn = id
	}
	w.Header().Set("Content-Type", "application/json")
	o.Inc().WriteJSON(w, txn)
}

func (o *Observer) handleHistory(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	n, ok := parseCount(w, q, "limit", "n")
	if !ok {
		return
	}
	series := q.Get("series")
	w.Header().Set("Content-Type", "application/json")
	if series == "" {
		// Without ?series= the useful answer is "what can I ask for":
		// the available series names, not every ring's full sample dump.
		o.Hist().WriteNamesJSON(w)
		return
	}
	o.Hist().WriteJSON(w, series, n)
}

func (o *Observer) handleRules(w http.ResponseWriter, r *http.Request) {
	n, ok := parseCount(w, r.URL.Query(), "limit", "n")
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	o.Prof().WriteJSON(w, n)
}

func (o *Observer) handleMemory(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	o.Prof().WriteMemoryJSON(w)
}

func (o *Observer) handleExplain(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	relation := q.Get("relation")
	if relation == "" {
		http.Error(w, "missing relation parameter", http.StatusBadRequest)
		return
	}
	depth, ok := parseCount(w, q, "depth")
	if !ok {
		return
	}
	nodes, ok := parseCount(w, q, "nodes")
	if !ok {
		return
	}
	e := o.explainer()
	if e == nil {
		http.Error(w, "no explainer registered (provenance disabled?)", http.StatusServiceUnavailable)
		return
	}
	res, err := e.Explain(relation, q.Get("key"), depth, nodes)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrNotFound) {
			code = http.StatusNotFound
		}
		http.Error(w, err.Error(), code)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(res)
}

// Serve serves the runtime endpoints on ln until it is closed.
func (o *Observer) Serve(ln net.Listener) error {
	srv := &http.Server{Handler: o.Handler(), ReadHeaderTimeout: 5 * time.Second}
	return srv.Serve(ln)
}

// ListenAndServe listens on addr and serves the runtime endpoints.
func (o *Observer) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return o.Serve(ln)
}
