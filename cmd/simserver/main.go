// Command simserver is the simulation-as-a-service fabric binary: a
// job coordinator, a pull worker, or a submit client, depending on its
// flags.
//
// Coordinator (with optional in-process workers):
//
//	simserver -listen :8990 -journal /var/run/gpues -workers 4
//
// Standalone worker attached to a coordinator:
//
//	simserver -join http://127.0.0.1:8990 -name w1 -spool /var/run/gpues/spool
//
// Submit a job and wait for its result:
//
//	simserver -join http://127.0.0.1:8990 -submit '{"benchmark":"sgemm","scale":2,"scheme":"replay-queue"}' -wait
//
// SIGTERM or SIGINT drains a coordinator gracefully: new submissions
// are rejected, leased workers are asked to checkpoint and hand back
// (finish-or-checkpoint), and the journal holds the full queue state
// for the next coordinator. A SIGKILL loses nothing either — every
// transition was journaled before it was acknowledged — it just skips
// the checkpoint courtesy.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"gpues/internal/obsrv"
	"gpues/internal/runspec"
	"gpues/internal/simserv"
	"gpues/internal/simserv/queue"
)

// options holds every flag value; validate checks them up front so a
// bad value fails fast with exit 2, before any state is touched.
type options struct {
	listen       string
	journal      string
	workers      int
	lease        time.Duration
	maxRetries   int
	queueCap     int
	drainTimeout time.Duration
	backoff      time.Duration
	tenantRate   float64
	tenantBurst  int
	httpAddr     string

	join   string
	name   string
	spool  string
	slice  int64
	poll   time.Duration
	submit string
	tenant string
	wait   bool

	spec runspec.JobSpec // -submit, decoded and checked by validate
}

// validate enforces the flag contract. It returns the message to
// print before exiting 2; the empty string means the options are
// sound.
func (o *options) validate() string {
	switch {
	case o.listen == "" && o.join == "":
		return "one of -listen (coordinator) or -join (worker/client) is required"
	case o.listen != "" && o.join != "":
		return "-listen and -join are mutually exclusive"
	}
	if o.listen != "" {
		if err := obsrv.ValidateAddr(o.listen); err != nil {
			return fmt.Sprintf("-listen: %v", err)
		}
		if o.journal == "" {
			return "-listen needs -journal (the crash-only queue state directory)"
		}
		if o.submit != "" || o.wait {
			return "-submit/-wait need -join, not -listen"
		}
	}
	if o.join != "" {
		u, err := url.Parse(o.join)
		if err != nil || u.Scheme != "http" && u.Scheme != "https" || u.Host == "" {
			return fmt.Sprintf("-join %q is not an http(s) URL", o.join)
		}
		if o.workers != defaultWorkers() {
			return "-workers runs in-process workers and needs -listen; a -join worker is one process"
		}
	}
	if o.workers < 0 || o.workers > 4*runtime.NumCPU() {
		return fmt.Sprintf("-workers %d out of range [0,%d] (4×NumCPU)", o.workers, 4*runtime.NumCPU())
	}
	if o.lease <= 0 {
		return fmt.Sprintf("-lease %v must be positive", o.lease)
	}
	if o.maxRetries < 0 {
		return fmt.Sprintf("-max-retries %d must be non-negative", o.maxRetries)
	}
	if o.queueCap < 0 {
		return fmt.Sprintf("-queue-cap %d must be non-negative (0 = unlimited)", o.queueCap)
	}
	if o.drainTimeout <= 0 {
		return fmt.Sprintf("-drain-timeout %v must be positive", o.drainTimeout)
	}
	if o.backoff < 0 {
		return fmt.Sprintf("-backoff %v must be non-negative", o.backoff)
	}
	if o.tenantRate < 0 {
		return fmt.Sprintf("-tenant-rate %v must be non-negative (0 = no quotas)", o.tenantRate)
	}
	if o.tenantRate > 0 && o.tenantBurst < 1 {
		return fmt.Sprintf("-tenant-burst %d must be >= 1 with -tenant-rate", o.tenantBurst)
	}
	if o.httpAddr != "" {
		if err := obsrv.ValidateAddr(o.httpAddr); err != nil {
			return fmt.Sprintf("-http: %v", err)
		}
	}
	if o.slice <= 0 {
		return fmt.Sprintf("-slice %d must be positive", o.slice)
	}
	if o.poll <= 0 {
		return fmt.Sprintf("-poll %v must be positive", o.poll)
	}
	if o.submit != "" {
		dec := json.NewDecoder(strings.NewReader(o.submit))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&o.spec); err != nil {
			return fmt.Sprintf("-submit is not a JobSpec JSON document: %v", err)
		}
		if _, _, err := o.spec.Build(); err != nil {
			return fmt.Sprintf("-submit: %v", err)
		}
	}
	if o.wait && o.submit == "" {
		return "-wait needs -submit"
	}
	return ""
}

func defaultWorkers() int { return 0 }

func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("simserver", flag.ContinueOnError)
	fs.StringVar(&o.listen, "listen", "", "coordinator listen address (host:port)")
	fs.StringVar(&o.journal, "journal", "", "coordinator journal directory (crash-only queue state)")
	fs.IntVar(&o.workers, "workers", defaultWorkers(), "in-process workers to run alongside the coordinator")
	fs.DurationVar(&o.lease, "lease", 30*time.Second, "job lease duration; workers renew inside it")
	fs.IntVar(&o.maxRetries, "max-retries", 2, "failed or expired attempts before a job dead-letters")
	fs.IntVar(&o.queueCap, "queue-cap", 256, "resident job cap; submissions beyond it get 429 (0 = unlimited)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "graceful drain budget on SIGTERM")
	fs.DurationVar(&o.backoff, "backoff", 2*time.Second, "base retry backoff (doubles per retry, jittered)")
	fs.Float64Var(&o.tenantRate, "tenant-rate", 0, "per-tenant submissions per second (0 = no quotas)")
	fs.IntVar(&o.tenantBurst, "tenant-burst", 8, "per-tenant submission burst (with -tenant-rate)")
	fs.StringVar(&o.httpAddr, "http", "", "serve fabric metrics (/metrics, /status) on this host:port")
	fs.StringVar(&o.join, "join", "", "coordinator URL to attach to as a worker or client")
	fs.StringVar(&o.name, "name", "", "worker name (default worker-<pid>)")
	fs.StringVar(&o.spool, "spool", "", "checkpoint spool directory (default <journal>/spool or ./spool)")
	fs.Int64Var(&o.slice, "slice", 50_000, "cycles simulated between lease renewals")
	fs.DurationVar(&o.poll, "poll", 200*time.Millisecond, "idle worker claim interval")
	fs.StringVar(&o.submit, "submit", "", "submit this JobSpec JSON and exit (with -join)")
	fs.StringVar(&o.tenant, "tenant", "", "tenant name for -submit")
	fs.BoolVar(&o.wait, "wait", false, "with -submit: poll until the job is done or dead")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	if msg := o.validate(); msg != "" {
		fmt.Fprintln(os.Stderr, msg)
		os.Exit(2)
	}
	if o.name == "" {
		o.name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	var code int
	switch {
	case o.listen != "":
		code = runCoordinator(o)
	case o.submit != "":
		code = runSubmit(o)
	default:
		code = runWorker(o)
	}
	os.Exit(code)
}

func runCoordinator(o *options) int {
	var sink simserv.FabricSink
	var obsSrv *obsrv.Server
	if o.httpAddr != "" {
		obsSrv = obsrv.New(o.httpAddr)
		addr, err := obsSrv.Start()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("metrics on http://%s/metrics\n", addr)
		sink = obsSrv
	}
	coord, err := simserv.NewCoordinator(simserv.Options{
		Queue: queue.Config{
			Cap:        o.queueCap,
			Lease:      int64(o.lease),
			MaxRetries: o.maxRetries,
			Backoff:    int64(o.backoff),
		},
		JournalDir:  o.journal,
		TenantRate:  o.tenantRate,
		TenantBurst: o.tenantBurst,
		Sink:        sink,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	srv := &http.Server{Handler: coord}
	go srv.Serve(ln) //nolint:errcheck // Serve returns on Close
	fmt.Printf("coordinator on http://%s (journal %s)\n", ln.Addr(), o.journal)

	// Reaper: reclaim expired leases well inside one lease period.
	reapCtx, stopReaper := context.WithCancel(context.Background())
	go func() {
		t := time.NewTicker(o.lease / 4)
		defer t.Stop()
		for {
			select {
			case <-reapCtx.Done():
				return
			case now := <-t.C:
				coord.Tick(now.UnixNano())
			}
		}
	}()

	// In-process workers share the coordinator's spool via loopback
	// HTTP: the same claim/lease protocol external workers speak.
	wctx, stopWorkers := context.WithCancel(context.Background())
	base := fmt.Sprintf("http://%s", ln.Addr())
	for i := 1; i <= o.workers; i++ {
		w := &simserv.Worker{
			Client:      &simserv.Client{Base: base},
			Name:        fmt.Sprintf("%s-local-%d", o.name, i),
			Spool:       coord.SpoolDir(),
			SliceCycles: o.slice,
			Poll:        o.poll,
			Log:         func(s string) { fmt.Println(s) },
		}
		go w.Run(wctx) //nolint:errcheck // Run returns nil on cancel
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	<-sig
	fmt.Printf("draining (budget %v)...\n", o.drainTimeout)
	// Order matters: drain first — workers must stay alive to honor
	// the checkpoint-and-hand-back directives — then stop them, then
	// close the listeners.
	if err := coord.Drain(o.drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		stopWorkers()
		stopReaper()
		srv.Close()
		return 1
	}
	stopWorkers()
	stopReaper()
	srv.Close()
	if obsSrv != nil {
		obsSrv.Close()
	}
	fmt.Println("drained; journal holds the queue state")
	return 0
}

func runWorker(o *options) int {
	spool := o.spool
	if spool == "" {
		spool = "spool"
	}
	w := &simserv.Worker{
		Client:      &simserv.Client{Base: o.join},
		Name:        o.name,
		Spool:       spool,
		SliceCycles: o.slice,
		Poll:        o.poll,
		Log:         func(s string) { fmt.Println(s) },
	}
	ctx, cancel := context.WithCancel(context.Background())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	go func() { <-sig; cancel() }()
	fmt.Printf("worker %s pulling from %s\n", o.name, o.join)
	w.Run(ctx) //nolint:errcheck // Run returns nil on cancel
	return 0
}

func runSubmit(o *options) int {
	cl := &simserv.Client{Base: o.join}
	resp, err := cl.Submit(simserv.SubmitRequest{Tenant: o.tenant, Spec: o.spec})
	if err != nil {
		if ra := simserv.RetryAfter(err); ra != "" {
			fmt.Fprintf(os.Stderr, "%v (retry after %ss)\n", err, ra)
		} else {
			fmt.Fprintln(os.Stderr, err)
		}
		return 1
	}
	if !o.wait {
		json.NewEncoder(os.Stdout).Encode(resp) //nolint:errcheck // stdout
		return 0
	}
	for {
		st, err := cl.Job(resp.ID)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		switch st.State {
		case "done":
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			enc.Encode(st) //nolint:errcheck // stdout
			return 0
		case "dead":
			fmt.Fprintf(os.Stderr, "job %s dead-lettered: %s\n", st.ID, st.LastError)
			if st.StallReport != "" {
				fmt.Fprintln(os.Stderr, st.StallReport)
			}
			return 1
		}
		time.Sleep(o.poll)
	}
}
