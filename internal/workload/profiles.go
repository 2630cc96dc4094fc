package workload

// This file defines the 24 synthetic benchmark profiles standing in for the
// SPEC CPU2006 workloads the paper evaluates (reference inputs; 403.gcc,
// 433.milc, 447.dealII, 481.wrf and 482.sphinx3 were excluded by the authors
// too). Each profile is tuned so its reuse-distance spectrum lands in the
// Explorer windows the paper reports for that benchmark (Figures 7 and 8),
// its working-set curve matches the qualitative shape of Figure 13 where
// given, and its instruction mix produces a plausible CPI ordering
// (Figures 9 and 10).
//
// Sizing rule: a stream with weight w over L cachelines, touching each line
// Burst times before moving on, in a program with memory ratio m, revisits
// a line about every L*Burst/(w*m) instructions. The Explorer windows at
// paper scale are 5M / 50M / 100M / 1000M instructions before each region,
// so each stream's footprint below is chosen to land its backward reuses in
// the targeted window (noted in the comments). Burst is ~4 for loop-based
// streams (several word accesses per 64 B line — what keeps the key
// cacheline count per 10k-instruction region in the low hundreds, matching
// the paper's average of 151) and 1 for pointer chasing.

// MiB at paper scale.
const mib = 1 << 20

// suite holds the benchmark profiles' constructors, in the paper's plot
// order.
var suite = [...]func() *Profile{
	Perlbench, Bzip2, Bwaves, Gamess, Mcf, Zeusmp,
	Gromacs, CactusADM, Leslie3d, Namd, Gobmk, Soplex,
	Povray, Calculix, Hmmer, Sjeng, GemsFDTD, Libquantum,
	H264ref, Tonto, Lbm, Omnetpp, Astar, Xalancbmk,
}

// suiteIndex maps each profile name to its constructor in suite, so
// ByName builds only the profile it returns.
var suiteIndex = func() map[string]func() *Profile {
	m := make(map[string]func() *Profile, len(suite))
	for _, mk := range suite {
		m[mk().Name] = mk
	}
	return m
}()

// Benchmarks returns the full benchmark suite, in the paper's plot order.
func Benchmarks() []*Profile {
	all := make([]*Profile, len(suite))
	for i, mk := range suite {
		all[i] = mk()
	}
	return all
}

// ByName returns a fresh copy of the profile with the given name (callers
// may mutate it), or nil.
func ByName(name string) *Profile {
	if mk, ok := suiteIndex[name]; ok {
		return mk()
	}
	return nil
}

// Perlbench: integer, branchy interpreter; medium working set, reuses
// mostly within Explorer-1/2 reach.
func Perlbench() *Profile {
	return &Profile{
		Name: "perlbench", MemRatio: 0.38, BranchRatio: 0.18, FPFrac: 0.05,
		LoopDuty: 12, RandomBranchFrac: 0.10, ILP: 4, CodeKiB: 96, Seed: 101,
		Streams: []StreamSpec{
			{Kind: Rand, Weight: 0.60, PaperBytes: 1 * mib, PCs: 24, WriteFrac: 0.35, Burst: 4}, // hot interpreter state
			{Kind: Seq, Weight: 0.30, PaperBytes: 10 * mib, PCs: 16, WriteFrac: 0.2, Burst: 4},  // ~5.5M -> E2
			{Kind: Seq, Weight: 0.10, PaperBytes: 2 * mib, PCs: 8, WriteFrac: 0.3, Burst: 4},    // ~3.4M -> E1
		},
	}
}

// Bzip2: block compressor; sequential sweeps over the block plus hot tables.
func Bzip2() *Profile {
	return &Profile{
		Name: "bzip2", MemRatio: 0.36, BranchRatio: 0.15, FPFrac: 0.02,
		LoopDuty: 24, RandomBranchFrac: 0.12, ILP: 4, CodeKiB: 48, Seed: 102,
		Streams: []StreamSpec{
			{Kind: Rand, Weight: 0.50, PaperBytes: 2 * mib, PCs: 12, WriteFrac: 0.3, Burst: 4},
			{Kind: Seq, Weight: 0.35, PaperBytes: 15 * mib, PCs: 8, WriteFrac: 0.4, Burst: 4}, // ~7.5M -> E2
			{Kind: Seq, Weight: 0.15, PaperBytes: 4 * mib, PCs: 8, WriteFrac: 0.2, Burst: 4},  // ~4.6M -> E1
		},
	}
}

// Bwaves: the paper's best case (49x over CoolSim): a small number of key
// accesses, all with short reuses — Explorer-1 suffices and most memory
// operations hit in the lukewarm cache or MSHRs (Fig. 8 shows <1 Explorer).
func Bwaves() *Profile {
	return &Profile{
		Name: "bwaves", MemRatio: 0.40, BranchRatio: 0.08, FPFrac: 0.70,
		LoopDuty: 64, RandomBranchFrac: 0.01, ILP: 7, CodeKiB: 24, Seed: 103,
		Streams: []StreamSpec{
			{Kind: Rand, Weight: 0.85, PaperBytes: 512 * 1024, PCs: 10, WriteFrac: 0.3, Burst: 6}, // hot block
			{Kind: Seq, Weight: 0.15, PaperBytes: 4 * mib, PCs: 6, WriteFrac: 0.4, Burst: 4},      // ~4.3M -> E1
		},
	}
}

// Gamess: quantum chemistry; compute bound, tiny memory footprint.
func Gamess() *Profile {
	return &Profile{
		Name: "gamess", MemRatio: 0.26, BranchRatio: 0.10, FPFrac: 0.75,
		LoopDuty: 32, RandomBranchFrac: 0.02, ILP: 6, CodeKiB: 64, Seed: 104,
		Streams: []StreamSpec{
			{Kind: Rand, Weight: 0.90, PaperBytes: 1 * mib, PCs: 16, WriteFrac: 0.25, Burst: 6},
			{Kind: Seq, Weight: 0.10, PaperBytes: 2 * mib, PCs: 8, WriteFrac: 0.2, Burst: 4}, // ~4.9M -> E1
		},
	}
}

// Mcf: pointer-chasing over a huge graph; long reuses, high CPI, engages
// several Explorers (Fig. 8).
func Mcf() *Profile {
	return &Profile{
		Name: "mcf", MemRatio: 0.42, BranchRatio: 0.20, FPFrac: 0.0,
		LoopDuty: 8, RandomBranchFrac: 0.25, ILP: 2, CodeKiB: 16, Seed: 105,
		Streams: []StreamSpec{
			{Kind: Rand, Weight: 0.30, PaperBytes: 2 * mib, PCs: 8, WriteFrac: 0.3, Burst: 4},
			{Kind: Chase, Weight: 0.50, PaperBytes: 256 * mib, PCs: 6, WriteFrac: 0.15}, // ~20M -> E2
			{Kind: Chase, Weight: 0.20, PaperBytes: 768 * mib, PCs: 4, WriteFrac: 0.1},  // ~143M -> E4
		},
	}
}

// Zeusmp: CFD stencils over staggered grids; reuses spread across all four
// Explorer windows (Fig. 7 shows zeus engaging up to Explorer-4).
func Zeusmp() *Profile {
	return &Profile{
		Name: "zeusmp", MemRatio: 0.37, BranchRatio: 0.07, FPFrac: 0.65,
		LoopDuty: 48, RandomBranchFrac: 0.02, ILP: 6, CodeKiB: 40, Seed: 106,
		Streams: []StreamSpec{
			{Kind: Seq, Weight: 0.30, PaperBytes: 8 * mib, PCs: 8, WriteFrac: 0.4, Burst: 4},   // ~4.5M -> E1
			{Kind: Seq, Weight: 0.30, PaperBytes: 32 * mib, PCs: 8, WriteFrac: 0.4, Burst: 4},  // ~18M -> E2
			{Kind: Seq, Weight: 0.20, PaperBytes: 64 * mib, PCs: 8, WriteFrac: 0.2, Burst: 4},  // ~54M -> E3
			{Kind: Seq, Weight: 0.20, PaperBytes: 128 * mib, PCs: 8, WriteFrac: 0.4, Burst: 4}, // ~108M -> E4
		},
	}
}

// Gromacs: molecular dynamics; mostly hot data with a thin tail of very
// long reuses ("a couple benchmarks have few long reuse distances", §6.1.2).
func Gromacs() *Profile {
	return &Profile{
		Name: "gromacs", MemRatio: 0.33, BranchRatio: 0.09, FPFrac: 0.60,
		LoopDuty: 24, RandomBranchFrac: 0.04, ILP: 5, CodeKiB: 48, Seed: 107,
		Streams: []StreamSpec{
			{Kind: Rand, Weight: 0.84, PaperBytes: 2 * mib, PCs: 16, WriteFrac: 0.3, Burst: 5},
			{Kind: Seq, Weight: 0.14, PaperBytes: 16 * mib, PCs: 8, WriteFrac: 0.2, Burst: 4}, // ~22M -> E2
			{Kind: Chase, Weight: 0.02, PaperBytes: 256 * mib, PCs: 4, WriteFrac: 0.1},        // ~600M -> E4, few keys
		},
	}
}

// CactusADM: numerical relativity; four staggered grid footprints giving a
// gradual working-set curve with no pronounced knee (Fig. 13) and all four
// Explorers engaged (Fig. 8). Footprints are knee positions, so they are
// not divided down for Burst.
func CactusADM() *Profile {
	return &Profile{
		Name: "cactusADM", MemRatio: 0.40, BranchRatio: 0.05, FPFrac: 0.70,
		LoopDuty: 64, RandomBranchFrac: 0.01, ILP: 6, CodeKiB: 56, Seed: 108,
		Streams: []StreamSpec{
			{Kind: Seq, Weight: 0.25, PaperBytes: 16 * mib, PCs: 8, WriteFrac: 0.45, Burst: 4},   // ~10M -> E2
			{Kind: Seq, Weight: 0.25, PaperBytes: 96 * mib, PCs: 8, WriteFrac: 0.45, Burst: 4},   // ~61M -> E3
			{Kind: Seq, Weight: 0.25, PaperBytes: 256 * mib, PCs: 8, WriteFrac: 0.45, Burst: 4},  // ~164M -> E4
			{Kind: Rand, Weight: 0.25, PaperBytes: 512 * mib, PCs: 8, WriteFrac: 0.25, Burst: 4}, // ~328M -> E4
		},
	}
}

// Leslie3d: CFD; staggered footprints, gradual working-set curve (Fig. 13),
// long reuses engaging the later Explorers.
func Leslie3d() *Profile {
	return &Profile{
		Name: "leslie3d", MemRatio: 0.41, BranchRatio: 0.06, FPFrac: 0.68,
		LoopDuty: 48, RandomBranchFrac: 0.02, ILP: 5, CodeKiB: 40, Seed: 109,
		Streams: []StreamSpec{
			{Kind: Seq, Weight: 0.30, PaperBytes: 4 * mib, PCs: 8, WriteFrac: 0.4, Burst: 4},     // ~2.1M -> E1
			{Kind: Seq, Weight: 0.30, PaperBytes: 32 * mib, PCs: 8, WriteFrac: 0.4, Burst: 4},    // ~17M -> E2
			{Kind: Rand, Weight: 0.25, PaperBytes: 128 * mib, PCs: 8, WriteFrac: 0.25, Burst: 4}, // ~82M -> E3
			{Kind: Rand, Weight: 0.15, PaperBytes: 384 * mib, PCs: 6, WriteFrac: 0.2, Burst: 4},  // ~410M -> E4
		},
	}
}

// Namd: molecular dynamics; compute heavy, modest footprints.
func Namd() *Profile {
	return &Profile{
		Name: "namd", MemRatio: 0.32, BranchRatio: 0.08, FPFrac: 0.72,
		LoopDuty: 32, RandomBranchFrac: 0.02, ILP: 7, CodeKiB: 48, Seed: 110,
		Streams: []StreamSpec{
			{Kind: Rand, Weight: 0.60, PaperBytes: 1 * mib, PCs: 16, WriteFrac: 0.3, Burst: 5},
			{Kind: Seq, Weight: 0.30, PaperBytes: 6 * mib, PCs: 8, WriteFrac: 0.25, Burst: 4}, // ~3.9M -> E1
			{Kind: Seq, Weight: 0.10, PaperBytes: 24 * mib, PCs: 6, WriteFrac: 0.2, Burst: 4}, // ~47M -> E3
		},
	}
}

// Gobmk: game tree search; very branchy, data-dependent control flow, a
// thin tail of long reuses.
func Gobmk() *Profile {
	return &Profile{
		Name: "gobmk", MemRatio: 0.34, BranchRatio: 0.22, FPFrac: 0.0,
		LoopDuty: 6, RandomBranchFrac: 0.30, ILP: 3, CodeKiB: 160, Seed: 111,
		Streams: []StreamSpec{
			{Kind: Rand, Weight: 0.70, PaperBytes: 2 * mib, PCs: 32, WriteFrac: 0.35, Burst: 4},
			{Kind: Seq, Weight: 0.25, PaperBytes: 8 * mib, PCs: 16, WriteFrac: 0.25, Burst: 4}, // ~5.9M -> E2
			{Kind: Chase, Weight: 0.05, PaperBytes: 128 * mib, PCs: 4, WriteFrac: 0.1},         // ~123M -> E4, few keys
		},
	}
}

// Soplex: sparse linear programming. Many static load PCs spread the RSW
// samples thin — CoolSim's per-PC model overestimates LLC misses here
// (§6.2), which DSW's exact key reuses avoid.
func Soplex() *Profile {
	return &Profile{
		Name: "soplex", MemRatio: 0.39, BranchRatio: 0.16, FPFrac: 0.30,
		LoopDuty: 10, RandomBranchFrac: 0.12, ILP: 3, CodeKiB: 80, Seed: 112,
		Streams: []StreamSpec{
			{Kind: Rand, Weight: 0.50, PaperBytes: 1 * mib, PCs: 48, WriteFrac: 0.3, Burst: 4},
			{Kind: Seq, Weight: 0.35, PaperBytes: 32 * mib, PCs: 64, WriteFrac: 0.2, Burst: 4}, // ~15M -> E2
			{Kind: Chase, Weight: 0.15, PaperBytes: 320 * mib, PCs: 32, WriteFrac: 0.1},        // ~87M -> E3
		},
	}
}

// Povray: ray tracer; tiny working set except a sliver of scene-graph
// pointer chasing with very long reuses. The hot data is spread one line
// per page across the scene-graph arena and the chase overlays the same
// pages, so every directed-profiling watchpoint on a long-reuse line sits
// in a page the hot loop hammers — the false-positive pathology that makes
// povray the paper's worst case (1.05x over CoolSim, §6.1).
func Povray() *Profile {
	return &Profile{
		Name: "povray", MemRatio: 0.35, BranchRatio: 0.14, FPFrac: 0.45,
		LoopDuty: 10, RandomBranchFrac: 0.08, ILP: 4, CodeKiB: 112, Seed: 113,
		Streams: []StreamSpec{
			// 1.5 MiB hot set, one line per 4 KiB page (96 MiB span).
			{Kind: Rand, Weight: 0.93, PaperBytes: 1536 * 1024, PCs: 24, WriteFrac: 0.3, Burst: 4, SpreadLines: 64},
			{Kind: Seq, Weight: 0.05, PaperBytes: 3 * mib, PCs: 8, WriteFrac: 0.2, Burst: 4}, // ~11M -> E2
			// Scene graph chased over the hot stream's span: ~290M -> E4,
			// and every key shares its page with a hot line.
			{Kind: Chase, Weight: 0.02, PaperBytes: 96 * mib, PCs: 4, WriteFrac: 0.05, OverlayOf: 1},
		},
	}
}

// Calculix: mostly short reuses, but a paired burst pattern puts a set of
// ~100M-instruction reuses right before one detailed region out of five —
// the paper notes calculix needs four Explorers "only for a single detailed
// region and not the other regions" (§6.1.2).
func Calculix() *Profile {
	return &Profile{
		Name: "calculix", MemRatio: 0.36, BranchRatio: 0.10, FPFrac: 0.55,
		LoopDuty: 28, RandomBranchFrac: 0.03, ILP: 5, CodeKiB: 64, Seed: 114,
		Streams: []StreamSpec{
			{Kind: Rand, Weight: 0.70, PaperBytes: 2 * mib, PCs: 16, WriteFrac: 0.3, Burst: 5},
			{Kind: Seq, Weight: 0.22, PaperBytes: 6 * mib, PCs: 8, WriteFrac: 0.4, Burst: 4}, // ~3.4M -> E1
			// Paired bursts 100M instructions apart, once per 5B instructions:
			// active exactly at the region that starts at 3.0B (and 8.0B) with
			// its previous activity 100M earlier -> Explorer-3/4 for that
			// region only.
			{Kind: Rand, Weight: 0.08, PaperBytes: 48 * mib, PCs: 8, WriteFrac: 0.2, Burst: 4,
				PhasePeriod: 5_000_000_000, PhaseDuty: 0.004,
				PhaseOffsets: []float64{0.578, 0.599}},
		},
	}
}

// Hmmer: profile HMM search; tiny working set, highly predictable.
func Hmmer() *Profile {
	return &Profile{
		Name: "hmmer", MemRatio: 0.41, BranchRatio: 0.08, FPFrac: 0.05,
		LoopDuty: 48, RandomBranchFrac: 0.01, ILP: 8, CodeKiB: 24, Seed: 115,
		Streams: []StreamSpec{
			{Kind: Rand, Weight: 0.95, PaperBytes: 1 * mib, PCs: 12, WriteFrac: 0.3, Burst: 6},
			{Kind: Seq, Weight: 0.05, PaperBytes: 4 * mib, PCs: 4, WriteFrac: 0.2, Burst: 4}, // ~7.8M -> E2 rare
		},
	}
}

// Sjeng: chess search; hash-table probes give a thin tail of very long
// reuses over a large table.
func Sjeng() *Profile {
	return &Profile{
		Name: "sjeng", MemRatio: 0.31, BranchRatio: 0.21, FPFrac: 0.0,
		LoopDuty: 6, RandomBranchFrac: 0.28, ILP: 3, CodeKiB: 56, Seed: 116,
		Streams: []StreamSpec{
			{Kind: Rand, Weight: 0.80, PaperBytes: 2 * mib, PCs: 20, WriteFrac: 0.35, Burst: 4},
			{Kind: Seq, Weight: 0.17, PaperBytes: 12 * mib, PCs: 8, WriteFrac: 0.25, Burst: 4}, // ~14M -> E2
			{Kind: Chase, Weight: 0.03, PaperBytes: 384 * mib, PCs: 4, WriteFrac: 0.3},         // ~690M -> E4, few keys
		},
	}
}

// GemsFDTD: finite-difference time domain over huge grids; the paper's
// other CoolSim failure case — a large working set and key accesses with
// very long reuse distances engaging all four Explorers (§6.1).
func GemsFDTD() *Profile {
	return &Profile{
		Name: "GemsFDTD", MemRatio: 0.43, BranchRatio: 0.05, FPFrac: 0.72,
		LoopDuty: 64, RandomBranchFrac: 0.01, ILP: 5, CodeKiB: 48, Seed: 117,
		Streams: []StreamSpec{
			{Kind: Seq, Weight: 0.20, PaperBytes: 16 * mib, PCs: 24, WriteFrac: 0.45, Burst: 4},  // ~12M -> E2
			{Kind: Seq, Weight: 0.30, PaperBytes: 64 * mib, PCs: 24, WriteFrac: 0.45, Burst: 4},  // ~31M -> E2
			{Kind: Seq, Weight: 0.30, PaperBytes: 128 * mib, PCs: 24, WriteFrac: 0.45, Burst: 4}, // ~62M -> E3
			{Kind: Seq, Weight: 0.20, PaperBytes: 160 * mib, PCs: 16, WriteFrac: 0.25, Burst: 4}, // ~116M -> E4
		},
	}
}

// Libquantum: quantum simulation; one dominant streaming sweep, extremely
// prefetchable.
func Libquantum() *Profile {
	return &Profile{
		Name: "libquantum", MemRatio: 0.33, BranchRatio: 0.17, FPFrac: 0.10,
		LoopDuty: 96, RandomBranchFrac: 0.01, ILP: 6, CodeKiB: 8, Seed: 118,
		Streams: []StreamSpec{
			{Kind: Rand, Weight: 0.30, PaperBytes: 512 * 1024, PCs: 6, WriteFrac: 0.3, Burst: 5},
			{Kind: Seq, Weight: 0.70, PaperBytes: 12 * mib, PCs: 4, WriteFrac: 0.5, Burst: 4}, // ~3.3M -> E1
		},
	}
}

// H264ref: video encoder; motion search over reference frames.
func H264ref() *Profile {
	return &Profile{
		Name: "h264ref", MemRatio: 0.37, BranchRatio: 0.12, FPFrac: 0.08,
		LoopDuty: 16, RandomBranchFrac: 0.08, ILP: 5, CodeKiB: 88, Seed: 119,
		Streams: []StreamSpec{
			{Kind: Rand, Weight: 0.75, PaperBytes: 2 * mib, PCs: 24, WriteFrac: 0.3, Burst: 5},
			{Kind: Seq, Weight: 0.20, PaperBytes: 6 * mib, PCs: 8, WriteFrac: 0.35, Burst: 4}, // ~5.2M -> E2
			{Kind: Seq, Weight: 0.05, PaperBytes: 16 * mib, PCs: 8, WriteFrac: 0.2, Burst: 4}, // ~55M -> E3
		},
	}
}

// Tonto: quantum crystallography; hot compute data plus a sparse matrix
// tail with long reuses.
func Tonto() *Profile {
	return &Profile{
		Name: "tonto", MemRatio: 0.34, BranchRatio: 0.09, FPFrac: 0.65,
		LoopDuty: 24, RandomBranchFrac: 0.03, ILP: 5, CodeKiB: 96, Seed: 120,
		Streams: []StreamSpec{
			{Kind: Rand, Weight: 0.70, PaperBytes: 1 * mib, PCs: 20, WriteFrac: 0.3, Burst: 5},
			{Kind: Seq, Weight: 0.25, PaperBytes: 8 * mib, PCs: 12, WriteFrac: 0.25, Burst: 4}, // ~6M -> E2
			{Kind: Seq, Weight: 0.05, PaperBytes: 32 * mib, PCs: 6, WriteFrac: 0.2, Burst: 4},  // ~118M -> E4, few keys
		},
	}
}

// Lbm: lattice Boltzmann; the paper's Fig. 13 shows knees at 8 MiB and
// 512 MiB — two streaming footprints at exactly those sizes (knee
// positions, so not divided for Burst) — and Fig. 8 shows lbm engaging up
// to four Explorers.
func Lbm() *Profile {
	return &Profile{
		Name: "lbm", MemRatio: 0.44, BranchRatio: 0.03, FPFrac: 0.60,
		LoopDuty: 128, RandomBranchFrac: 0.01, ILP: 4, CodeKiB: 16, Seed: 121,
		Streams: []StreamSpec{
			// Total footprint ~456 MiB: the second knee must fit under the
			// largest evaluated LLC (512 MiB) or it can never appear.
			{Kind: Seq, Weight: 0.50, PaperBytes: 8 * mib, PCs: 8, WriteFrac: 0.5, Burst: 4},   // knee 1: 8 MiB, ~2.3M -> E1
			{Kind: Seq, Weight: 0.40, PaperBytes: 384 * mib, PCs: 8, WriteFrac: 0.5, Burst: 4}, // knee 2, ~136M -> E4
			{Kind: Chase, Weight: 0.10, PaperBytes: 64 * mib, PCs: 4, WriteFrac: 0.2},          // ~23M -> E2/E3
		},
	}
}

// Omnetpp: discrete event simulation; heap-allocated event objects, poor
// branch behaviour, medium-to-long reuses.
func Omnetpp() *Profile {
	return &Profile{
		Name: "omnetpp", MemRatio: 0.38, BranchRatio: 0.19, FPFrac: 0.02,
		LoopDuty: 5, RandomBranchFrac: 0.30, ILP: 3, CodeKiB: 128, Seed: 122,
		Streams: []StreamSpec{
			{Kind: Rand, Weight: 0.50, PaperBytes: 2 * mib, PCs: 24, WriteFrac: 0.35, Burst: 4},
			{Kind: Seq, Weight: 0.30, PaperBytes: 16 * mib, PCs: 16, WriteFrac: 0.3, Burst: 4}, // ~8.8M -> E2
			{Kind: Chase, Weight: 0.20, PaperBytes: 160 * mib, PCs: 8, WriteFrac: 0.2},         // ~35M -> E2/E3
		},
	}
}

// Astar: path finding; hot open-list plus a thin tail over the map.
func Astar() *Profile {
	return &Profile{
		Name: "astar", MemRatio: 0.36, BranchRatio: 0.18, FPFrac: 0.0,
		LoopDuty: 7, RandomBranchFrac: 0.22, ILP: 3, CodeKiB: 32, Seed: 123,
		Streams: []StreamSpec{
			{Kind: Rand, Weight: 0.55, PaperBytes: 1 * mib, PCs: 16, WriteFrac: 0.35, Burst: 4},
			{Kind: Seq, Weight: 0.40, PaperBytes: 8 * mib, PCs: 12, WriteFrac: 0.3, Burst: 4}, // ~3.6M -> E1
			{Kind: Chase, Weight: 0.05, PaperBytes: 256 * mib, PCs: 4, WriteFrac: 0.1},        // ~230M -> E4, few keys
		},
	}
}

// Xalancbmk: XML transformation; DOM-tree walks with many load PCs.
func Xalancbmk() *Profile {
	return &Profile{
		Name: "xalancbmk", MemRatio: 0.37, BranchRatio: 0.20, FPFrac: 0.0,
		LoopDuty: 8, RandomBranchFrac: 0.18, ILP: 3, CodeKiB: 192, Seed: 124,
		Streams: []StreamSpec{
			{Kind: Rand, Weight: 0.50, PaperBytes: 1 * mib, PCs: 40, WriteFrac: 0.3, Burst: 4},
			{Kind: Seq, Weight: 0.35, PaperBytes: 12 * mib, PCs: 24, WriteFrac: 0.25, Burst: 4}, // ~6.2M -> E2
			{Kind: Seq, Weight: 0.15, PaperBytes: 48 * mib, PCs: 12, WriteFrac: 0.2, Burst: 4},  // ~58M -> E3
		},
	}
}
