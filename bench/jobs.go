package main

import (
	"fmt"

	"gpues/internal/config"
	"gpues/internal/sim"
	"gpues/internal/workloads"
)

// job is one simulation: a benchmark kernel at scale 1 under one
// configuration, spelled with the axes of simserv.JobSpec.
type job struct {
	bench     string
	scheme    config.Scheme
	place     string // resident, lazy or paging
	pcie      bool
	local     bool // GPU-local handling of allocation-only faults
	switching bool // thread block switching on fault
}

// key names the job in output and in testdata/golden.json.
func (j job) key() string {
	link := "nvlink"
	if j.pcie {
		link = "pcie"
	}
	k := fmt.Sprintf("%s/%s/%s/%s", j.bench, j.place, j.scheme, link)
	if j.local {
		k += "+local"
	}
	if j.switching {
		k += "+switching"
	}
	return k
}

// config is the shipped default configuration with the job's axes set
// exactly as simserv.JobSpec.Build sets them.
func (j job) config() config.Config {
	cfg := config.Default()
	cfg.Scheme = j.scheme
	if j.pcie {
		cfg.Link = config.PCIeConfig()
	}
	cfg.DemandPaging = j.place == "paging"
	cfg.Scheduler.Enabled = j.switching
	cfg.Local.Enabled = j.local
	return cfg
}

// build generates the job's inputs from the workload seed. Every
// simulation needs a fresh build: running mutates functional memory.
func (j job) build(seed int64) (sim.LaunchSpec, error) {
	place := workloads.Resident()
	switch j.place {
	case "paging":
		place = workloads.DemandPaging()
	case "lazy":
		place = workloads.LazyOutput()
	}
	return workloads.Build(j.bench, workloads.Params{Scale: 1, Placement: place, Seed: seed})
}

// residentJobs is the fault-free pipeline path of Figures 10 and 11:
// every Parboil kernel under the baseline and the two buffering schemes.
func residentJobs() []job {
	var out []job
	for _, b := range workloads.Names("parboil") {
		for _, s := range []config.Scheme{config.Baseline, config.ReplayQueue, config.OperandLog} {
			out = append(out, job{bench: b, scheme: s, place: "resident"})
		}
	}
	return out
}

// faultJobs drive the fault path (fault unit, CPU and GPU-local
// handlers, the link and clock skip-ahead) under the replay queue:
// the Figure 13 allocators on both links, Figure 14 output faults, and
// Figure 12 demand paging with and without block switching.
func faultJobs() []job {
	var out []job
	rq := func(b, place string, pcie, local, sw bool) {
		out = append(out, job{bench: b, scheme: config.ReplayQueue, place: place,
			pcie: pcie, local: local, switching: sw})
	}
	for _, b := range []string{"halloc-spree", "halloc-churn", "halloc-varsize", "quadtree"} {
		for _, local := range []bool{false, true} {
			for _, pcie := range []bool{false, true} {
				rq(b, "lazy", pcie, local, false)
			}
		}
	}
	for _, b := range []string{"halloc-cycle", "histo", "lbm", "stencil", "bfs", "tpacf"} {
		for _, local := range []bool{false, true} {
			rq(b, "lazy", false, local, false)
		}
	}
	for _, b := range []string{"histo", "lbm", "stencil", "bfs", "spmv", "tpacf"} {
		for _, sw := range []bool{false, true} {
			rq(b, "paging", false, false, sw)
		}
	}
	return out
}

// jobsFor returns a workload's job list.
func jobsFor(workload string) []job {
	switch workload {
	case "resident":
		return residentJobs()
	case "faults":
		return faultJobs()
	}
	return nil
}
