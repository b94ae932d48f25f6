package cli

import (
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiles holds the -cpuprofile and -memprofile flags of the binaries
// that run simulations. Read the fields after flag parsing; an empty path
// disables that profile.
type Profiles struct {
	CPU, Mem string
}

// AddProfileFlags registers -cpuprofile and -memprofile on fs and returns
// the destination struct.
func AddProfileFlags(fs *flag.FlagSet) *Profiles {
	p := &Profiles{}
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&p.Mem, "memprofile", "", "write a pprof heap profile at exit to this file")
	return p
}

// Start begins CPU profiling into the -cpuprofile file. The flame graph it
// yields is where a perf investigation starts; `make profile` wires a
// representative scenario preset through it.
func (p *Profiles) Start() {
	if p.CPU == "" {
		return
	}
	f, err := os.Create(p.CPU)
	if err != nil {
		Fail("%v", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		Fail("-cpuprofile: %v", err)
	}
}

// Write stops the CPU profile and captures the heap profile, in that
// order. Call it right before Exit: Exit never returns, so it cannot be
// deferred.
func (p *Profiles) Write() {
	if p.CPU != "" {
		pprof.StopCPUProfile()
	}
	if p.Mem == "" {
		return
	}
	f, err := os.Create(p.Mem)
	if err != nil {
		Fail("%v", err)
	}
	defer f.Close()
	runtime.GC() // settle the heap so the profile shows live allocations
	if err := pprof.WriteHeapProfile(f); err != nil {
		Fail("-memprofile: %v", err)
	}
}
