package design

import (
	"fmt"

	"github.com/greensku/gsf/internal/hw"
	"github.com/greensku/gsf/internal/units"
)

// GPUOption is one accelerator population choice: a card spec and how
// many of it to fit. The zero value means no accelerator.
type GPUOption struct {
	Spec  hw.GPUSpec
	Count int
}

// Space is the discrete component space: CPU choice, DIMM population,
// reused-CXL memory, new and reused SSDs, and optional accelerators.
type Space struct {
	CPUs []hw.CPUSpec
	// Sockets lists socket-count choices; empty means single-socket.
	Sockets         []int
	LocalDIMMCounts []int
	LocalDIMMGBs    []units.GB
	// CXLDIMMCounts are reused 32 GB DDR4 DIMMs, four per CXL card.
	CXLDIMMCounts []int
	// NewSSDCounts are 4 TB E1.S drives; ReusedSSDCounts are 1 TB
	// m.2 drives (striped per the storage plan).
	NewSSDCounts    []int
	ReusedSSDCounts []int
	// GPUOptions lists accelerator populations to consider; empty
	// means CPU-only designs. Include the zero GPUOption to keep
	// CPU-only designs in a space that also explores accelerators.
	GPUOptions []GPUOption
}

// DefaultSpace spans the paper's design neighbourhood.
func DefaultSpace() Space {
	return Space{
		CPUs:            []hw.CPUSpec{hw.Genoa, hw.Bergamo},
		LocalDIMMCounts: []int{8, 10, 12},
		LocalDIMMGBs:    []units.GB{32, 64, 96},
		CXLDIMMCounts:   []int{0, 4, 8, 12},
		NewSSDCounts:    []int{0, 2, 3, 5},
		ReusedSSDCounts: []int{0, 6, 12},
	}
}

// feasible builds every design in the space once and returns those
// that satisfy c, in canonical nested order (CPU outermost, GPU option
// innermost). The order is the contract Candidates, the frontier's
// stream indices and Frontier.csv rely on for deterministic output.
func (s Space) feasible(c Constraints) []hw.SKU {
	sockets := s.Sockets
	if len(sockets) == 0 {
		sockets = []int{1}
	}
	gpus := s.GPUOptions
	if len(gpus) == 0 {
		gpus = []GPUOption{{}}
	}
	var out []hw.SKU
	for _, cpu := range s.CPUs {
		for _, sock := range sockets {
			for _, dimms := range s.LocalDIMMCounts {
				for _, gb := range s.LocalDIMMGBs {
					for _, cxl := range s.CXLDIMMCounts {
						for _, ssd := range s.NewSSDCounts {
							for _, rssd := range s.ReusedSSDCounts {
								for _, gpu := range gpus {
									if sku := buildSKU(cpu, sock, dimms, gb, cxl, ssd, rssd, gpu); Feasible(sku, c) {
										out = append(out, sku)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// buildSKU materialises one design; its name encodes every component
// choice, so names identify candidates.
func buildSKU(cpu hw.CPUSpec, sockets, dimms int, gb units.GB, cxl, ssd, rssd int, gpu GPUOption) hw.SKU {
	name := fmt.Sprintf("%s-%dx%.0fG-%dcxl-%dssd-%drssd", cpu.Name, dimms, float64(gb), cxl, ssd, rssd)
	if sockets > 1 {
		name += fmt.Sprintf("-%ds", sockets)
	}
	if gpu.Count > 0 {
		name += fmt.Sprintf("-%dx%s", gpu.Count, gpu.Spec.Name)
	}
	sku := hw.SKU{
		Name:        name,
		CPU:         cpu,
		Sockets:     sockets,
		FormFactorU: 2,
		DIMMs:       []hw.DIMMGroup{{Count: dimms, CapacityGB: gb, Kind: hw.MemLocal}},
	}
	if cxl > 0 {
		sku.DIMMs = append(sku.DIMMs, hw.DIMMGroup{Count: cxl, CapacityGB: 32, Kind: hw.MemCXL, Reused: true})
		sku.CXLControllers = (cxl + 3) / 4
		sku.CXLBWGBs = 50 * float64(sku.CXLControllers)
	}
	if ssd > 0 {
		sku.SSDs = append(sku.SSDs, hw.SSDGroup{Count: ssd, CapacityTB: 4})
	}
	if rssd > 0 {
		sku.SSDs = append(sku.SSDs, hw.SSDGroup{Count: rssd, CapacityTB: 1, Reused: true})
	}
	if gpu.Count > 0 {
		sku.GPUs = []hw.GPUGroup{{Spec: gpu.Spec, Count: gpu.Count}}
	}
	return sku
}

// Constraints are the platform and product requirements a design must
// meet.
type Constraints struct {
	// MinMemPerCore/MaxMemPerCore bound the DRAM:core ratio in GB.
	MinMemPerCore, MaxMemPerCore float64
	// MinSSDTB is the storage floor.
	MinSSDTB float64
	// PCIeLanes is the platform budget; the NIC reserves NICLanes,
	// each CXL card takes 16, each SSD 4, each GPU 16.
	PCIeLanes, NICLanes int
}

// DefaultConstraints mirror the GreenSKU platform: 128 lanes with a
// 16-lane NIC, 6-10 GB of DRAM per core, at least 12 TB of SSD.
func DefaultConstraints() Constraints {
	return Constraints{
		MinMemPerCore: 6,
		MaxMemPerCore: 10,
		MinSSDTB:      12,
		PCIeLanes:     128,
		NICLanes:      16,
	}
}

// Lanes returns the design's PCIe lane consumption.
func Lanes(sku hw.SKU, c Constraints) int {
	return c.NICLanes + 16*sku.CXLControllers + 4*sku.SSDCount() + 16*sku.GPUCount()
}

// Feasible reports whether the design satisfies the constraints.
func Feasible(sku hw.SKU, c Constraints) bool {
	ratio := sku.MemoryCoreRatio()
	if ratio < c.MinMemPerCore || ratio > c.MaxMemPerCore {
		return false
	}
	if sku.TotalSSDTB() < c.MinSSDTB {
		return false
	}
	if Lanes(sku, c) > c.PCIeLanes {
		return false
	}
	return sku.Validate() == nil
}
