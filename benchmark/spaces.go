package main

import (
	"fmt"

	"ubiqos/internal/core"
	"ubiqos/internal/device"
	"ubiqos/internal/domain"
	"ubiqos/internal/netsim"
	"ubiqos/internal/registry"
	"ubiqos/internal/resource"
	"ubiqos/internal/workload"
)

// deviceSpec is one device of a smart space, with its raw (device-local)
// capacity; domain.AddDevice normalizes the CPU share by the class's speed
// ratio.
type deviceSpec struct {
	id    device.ID
	class device.Class
	raw   resource.Vector
	attrs map[string]string
}

// spaceSpec describes a smart space: what the harness hands to the public
// constructors.
type spaceSpec struct {
	name      string
	devices   []deviceSpec
	link      func(a, b deviceSpec) netsim.Link
	instances []*registry.Instance
}

// benchWeights are the significance weights domain.New defaults to, spelled
// out so that the ladder's bare configurator and hand-built problems use
// the same ones.
var benchWeights = resource.Weights{0.3, 0.3, 0.4}

// buildSpace constructs the domain as cmd/qosconfigd does — default
// observers, plan cache on — at Scale 1 with every component installed on
// every device, so no configure sleeps a modeled download.
func buildSpace(spec spaceSpec, place core.PlaceFunc) (*domain.Domain, error) {
	dom, err := domain.New(spec.name, domain.Options{Scale: 1, Weights: benchWeights, Place: place})
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*domain.Domain, error) {
		dom.Close()
		return nil, fmt.Errorf("space %s: %w", spec.name, err)
	}
	for _, d := range spec.devices {
		if _, err := dom.AddDevice(d.id, d.class, d.raw, d.attrs); err != nil {
			return fail(err)
		}
	}
	for i, a := range spec.devices {
		for _, b := range spec.devices[i+1:] {
			if err := dom.Connect(a.id, b.id, spec.link(a, b)); err != nil {
				return fail(err)
			}
		}
	}
	for _, in := range spec.instances {
		if err := dom.Registry.Register(in); err != nil {
			return fail(err)
		}
		for _, d := range spec.devices {
			dom.Repo.MarkInstalled(string(d.id), in.Name)
		}
	}
	return dom, nil
}

// wired links any two devices by Ethernet unless one of them is a PDA,
// which hangs off the wireless LAN.
func wired(a, b deviceSpec) netsim.Link {
	if a.class == device.ClassPDA || b.class == device.ClassPDA {
		return netsim.WLAN
	}
	return netsim.Ethernet
}

// mix4Space: four desktops and a PDA with capacity to spare, so no request
// is ever refused and the few distinct problems keep the plan cache hot.
func mix4Space() spaceSpec {
	spec := spaceSpec{name: "mix4", link: wired, instances: mix4Instances()}
	for _, id := range mix4Desktops {
		spec.devices = append(spec.devices, deviceSpec{id, device.ClassDesktop, resource.MB(1024, 100), map[string]string{"platform": "pc"}})
	}
	spec.devices = append(spec.devices, deviceSpec{mix4PDA, device.ClassPDA, resource.MB(64, 100), map[string]string{"platform": "pda"}})
	return spec
}

// bigraphSpace: two of each Fig. 5 device class (normalized RA = [256 MB,
// 300 %], [128 MB, 100 %], [32 MB, 50 %]) with Fig. 5's bandwidths; two
// resident sessions of the largest graphs fit on the desktops alone.
func bigraphSpace() spaceSpec {
	p := workload.Fig5Params()
	return spaceSpec{
		name: "bigraph",
		devices: []deviceSpec{
			{"desktopA", device.ClassDesktop, resource.MB(256, 60), nil},
			{"desktopB", device.ClassDesktop, resource.MB(256, 60), nil},
			{"laptopA", device.ClassLaptop, resource.MB(128, 100), nil},
			{"laptopB", device.ClassLaptop, resource.MB(128, 100), nil},
			{"pdaA", device.ClassPDA, resource.MB(32, 125), nil},
			{"pdaB", device.ClassPDA, resource.MB(32, 125), nil},
		},
		link: func(a, b deviceSpec) netsim.Link {
			if a.class == device.ClassPDA || b.class == device.ClassPDA {
				return netsim.WLAN // 5 Mbps
			}
			if a.class == device.ClassDesktop && b.class == device.ClassDesktop {
				return netsim.Ethernet
			}
			return netsim.Link{BandwidthMbps: 50, LatencyMs: 0.3}
		},
		instances: catalogue(p.MemMB, p.CPUPct),
	}
}

// fillSpace: Table 1's PC (normalized [256 MB, 300 %]) and PDA ([32 MB,
// 100 %]) classes. A PDA hangs off Table 1's 100 Mbps link; the PCs share a
// gigabit backbone, because a Table 1 graph moves some 270 Mbps in total
// and on 100 Mbps between PCs bandwidth, not the devices, would refuse
// nearly every request.
func fillSpace() spaceSpec {
	p := workload.Table1Params()
	spec := spaceSpec{
		name: "fill",
		link: func(a, b deviceSpec) netsim.Link {
			if a.class == device.ClassPDA || b.class == device.ClassPDA {
				return netsim.Ethernet
			}
			return netsim.Link{BandwidthMbps: 1000, LatencyMs: 0.1}
		},
		instances: catalogue(p.MemMB, p.CPUPct),
	}
	for _, id := range fillDevices() {
		d := deviceSpec{id: id, class: device.ClassDesktop, raw: resource.MB(256, 60)}
		if len(spec.devices) >= fillPCs {
			d.class, d.raw = device.ClassPDA, resource.MB(32, 250)
		}
		spec.devices = append(spec.devices, d)
	}
	return spec
}

// churnSpace: three workers that take turns failing and a portal that
// never does. Any two workers hold the whole standing population, so no
// recovery is ever short of capacity.
func churnSpace() spaceSpec {
	p := churnParams()
	spec := spaceSpec{name: "churn", link: wired, instances: catalogue(p.MemMB, p.CPUPct)}
	for _, id := range churnWorkers {
		spec.devices = append(spec.devices, deviceSpec{id, device.ClassWorkstation, resource.MB(512, 100), nil})
	}
	spec.devices = append(spec.devices, deviceSpec{churnPortal, device.ClassLaptop, resource.MB(256, 400), nil})
	return spec
}
