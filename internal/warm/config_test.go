package warm

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cpu"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		edit func(*Config)
		want string // substring of the error; "" means valid
	}{
		{"default", func(*Config) {}, ""},
		{"test geometry", func(c *Config) { *c = testCfg() }, ""},
		{"single full window", func(c *Config) { c.ExplorerWindows = []float64{1} }, ""},
		{"warm-up and region fill the gap exactly", func(c *Config) {
			c.PaperGap, c.Scale = 40_000, 1
		}, ""},
		{"zero scale", func(c *Config) { c.Scale = 0 }, "Scale"},
		{"one region", func(c *Config) { c.Regions = 1 }, ""},
		{"no regions", func(c *Config) { c.Regions = 0 }, "Regions"},
		{"negative regions", func(c *Config) { c.Regions = -1 }, "Regions"},
		{"paper's full run at scale 1", func(c *Config) { c.Scale = 1 }, ""},
		{"one region past the instruction bound", func(c *Config) { c.Scale, c.Regions = 1, 11 }, "Regions"},
		{"gap past the instruction bound", func(c *Config) { c.Scale, c.PaperGap = 1, MaxRunInstr/10+1 }, "Regions"},
		{"regions that overflow a product", func(c *Config) { c.Regions = math.MaxInt }, "Regions"},
		{"no windows", func(c *Config) { c.ExplorerWindows = nil }, "empty"},
		{"descending windows", func(c *Config) { c.ExplorerWindows = []float64{0.1, 0.05} }, "ascending"},
		{"repeated window", func(c *Config) { c.ExplorerWindows = []float64{0.05, 0.05, 1} }, "ascending"},
		{"zero window", func(c *Config) { c.ExplorerWindows = []float64{0, 1} }, "ascending"},
		{"window past the gap", func(c *Config) { c.ExplorerWindows = []float64{0.5, 1.5} }, "ascending"},
		{"NaN window", func(c *Config) { c.ExplorerWindows = []float64{math.NaN()} }, "ascending"},
		{"warm-up and region overflow the gap", func(c *Config) {
			c.PaperGap, c.Scale = 39_999, 1
		}, "gap"},
		{"warm-up alone overflows the gap", func(c *Config) {
			c.PaperGap, c.Scale, c.RegionLen = 1_000, 1, 0
		}, "gap"},
		{"huge region cannot wrap", func(c *Config) { c.RegionLen = math.MaxUint64 }, "gap"},
		{"paper's largest LLC at scale 1", func(c *Config) { c.LLCPaperBytes, c.Scale = 512<<20, 1 }, ""},
		{"LLC at the bound", func(c *Config) { c.LLCPaperBytes, c.Scale = MaxLLCBytes, 1 }, ""},
		{"huge paper LLC scaled to the bound", func(c *Config) { c.LLCPaperBytes = 64 * MaxLLCBytes }, ""},
		{"LLC one byte over the bound", func(c *Config) { c.LLCPaperBytes, c.Scale = MaxLLCBytes+1, 1 }, "LLCPaperBytes"},
		{"huge LLC at the default scale", func(c *Config) { c.LLCPaperBytes = 1 << 62 }, "LLCPaperBytes"},
		{"largest ROB", func(c *Config) { c.CPU.ROB = 1 << 16 }, ""},
		{"one-entry predictor tables", func(c *Config) {
			c.CPU.BP = cpu.BPConfig{LocalEntries: 1, GlobalEntries: 1, ChoiceEntries: 1, BTBEntries: 1}
		}, ""},
		{"zero ROB", func(c *Config) { c.CPU.ROB = 0 }, "ROB"},
		{"negative ROB", func(c *Config) { c.CPU.ROB = -1 }, "ROB"},
		{"huge ROB", func(c *Config) { c.CPU.ROB = 1<<16 + 1 }, "ROB"},
		{"zero width", func(c *Config) { c.CPU.Width = 0 }, "Width"},
		{"zero local table", func(c *Config) { c.CPU.BP.LocalEntries = 0 }, "LocalEntries"},
		{"zero global table", func(c *Config) { c.CPU.BP.GlobalEntries = 0 }, "GlobalEntries"},
		{"zero choice table", func(c *Config) { c.CPU.BP.ChoiceEntries = 0 }, "ChoiceEntries"},
		{"zero BTB", func(c *Config) { c.CPU.BP.BTBEntries = 0 }, "BTBEntries"},
		{"huge BTB", func(c *Config) { c.CPU.BP.BTBEntries = 1 << 40 }, "BTBEntries"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.edit(&cfg)
			err := cfg.Validate()
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("Validate() = %v, want nil", err)
			case tc.want != "" && err == nil:
				t.Errorf("Validate() = nil, want an error mentioning %q", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Errorf("Validate() = %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
}
