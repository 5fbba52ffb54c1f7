package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Daemon defaults the servers run with (cmd/siteserver and cmd/brokerd).
const (
	siteProcs    = 4
	discountRate = 0.01
	brokerTopK   = 4
)

// clientCodec is the codec the generator requests: the one brokerd dials
// its sites with by default.
const clientCodec = wire.CodecBinary

func sitePolicy() core.Policy { return core.FirstReward{Alpha: 0.3, DiscountRate: discountRate} }

// siteNode is one site server with the registry and ledger the benchmark
// handed it.
type siteNode struct {
	id     string
	srv    *wire.Server
	reg    *obs.Registry
	ledger *obs.Ledger
}

// env is one running system under test: its sites, an optional broker,
// and the generator's client connections to whichever of them is the
// entry point.
type env struct {
	sites   []*siteNode
	broker  *wire.BrokerServer
	breg    *obs.Registry
	clients []*wire.SiteClient
	dialMs  []float64
	dir     string
}

func (e *env) close() {
	for _, c := range e.clients {
		c.Close()
	}
	if e.broker != nil {
		e.broker.Close()
	}
	for _, s := range e.sites {
		s.srv.Close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// startSite runs one site server on loopback. A non-empty dir journals its
// contracts there at fsync=always.
func startSite(id, dir string, scale time.Duration) (*siteNode, error) {
	reg := obs.NewRegistry()
	pol := sitePolicy()
	ledger := obs.NewLedger(obs.LedgerConfig{Site: id, Policy: pol.Name()})
	srv, err := wire.NewServer("127.0.0.1:0", wire.ServerConfig{
		SiteID:       id,
		Processors:   siteProcs,
		Shards:       1,
		Policy:       pol,
		Admission:    admission.SlackThreshold{Threshold: 0},
		DiscountRate: discountRate,
		TimeScale:    scale,
		Metrics:      reg,
		Ledger:       ledger,
		DataDir:      dir,
		Fsync:        durable.FsyncAlways,
	})
	if err != nil {
		return nil, err
	}
	return &siteNode{id: id, srv: srv, reg: reg, ledger: ledger}, nil
}

// dialAll opens n generator connections to addr, timing each dial.
func (e *env) dialAll(addr string, n int) error {
	for i := 0; i < n; i++ {
		start := time.Now()
		c, err := wire.DialConfig(addr, wire.ClientConfig{Codec: clientCodec})
		if err != nil {
			return err
		}
		e.dialMs = append(e.dialMs, float64(time.Since(start))/1e6)
		e.clients = append(e.clients, c)
	}
	return nil
}

// scrape is one registry exposition, parsed.
type scrape []obs.PromFamily

func scrapeReg(r *obs.Registry) (scrape, error) {
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return obs.ParsePrometheus(&buf)
}

// sum adds every sample named name whose labels include the given
// key/value pairs.
func (s scrape) sum(name string, kv ...string) float64 {
	var total float64
	for _, f := range s {
		for _, smp := range f.Samples {
			if smp.Name != name {
				continue
			}
			match := true
			for i := 0; i+1 < len(kv); i += 2 {
				if smp.Label(kv[i]) != kv[i+1] {
					match = false
				}
			}
			if match {
				total += smp.Value
			}
		}
	}
	return total
}

// scrapeAll sums a metric over several registries.
func scrapeAll(ss []scrape, name string, kv ...string) float64 {
	var total float64
	for _, s := range ss {
		total += s.sum(name, kv...)
	}
	return total
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// fsType names the filesystem holding dir: tmpfs and disk differ in fsync
// cost by orders of magnitude.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", uint64(st.Type))
	}
}

// workDir is the benchmark's scratch area inside the checkout.
func workDir(parts ...string) (string, error) {
	dir := filepath.Join(append([]string{".bench_build", "work"}, parts...)...)
	return dir, os.MkdirAll(dir, 0o755)
}

// host is the run's host and validity record.
type host struct {
	CPUs       int    `json:"cpus"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	JournalFS  string `json:"journal_fs"`
	Conns      int    `json:"connections"`
	Transport  string `json:"transport,omitempty"`
	Codec      string `json:"codec,omitempty"`
}

// hostRecord describes the host; a workload with no connections (the
// simulator) has no transport.
func hostRecord(dir string, conns int) host {
	h := host{
		CPUs:       runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		JournalFS:  fsType(dir),
		Conns:      conns,
	}
	if conns > 0 {
		h.Transport, h.Codec = "loopback tcp", clientCodec
	}
	return h
}
