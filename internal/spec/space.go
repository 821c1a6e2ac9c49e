// Package spec loads a smart space, the environment one domain server
// manages, from a JSON document: its devices, the links among them, each
// device's uplink to the domain server host, and the service instances of
// its discovery catalog. An application is not described here: an app
// file is the composer.AbstractGraph JSON the wire carries (paper §3.1's
// abstract service graph), and the user's QoS requirement travels beside
// it.
//
// Example (testdata/lab.json holds a complete space):
//
//	{
//	  "name": "lab",
//	  "devices": [
//	    {"id": "desktop1", "class": "desktop", "memory": 256, "cpu": 100, "attrs": {"platform": "pc"}},
//	    {"id": "pda1", "class": "pda", "memory": 32, "cpu": 100, "attrs": {"platform": "pda"}}
//	  ],
//	  "links": [{"a": "desktop1", "b": "pda1", "preset": "wlan"}],
//	  "uplinks": [{"device": "desktop1", "preset": "ethernet"}, {"device": "pda1", "preset": "wlan"}],
//	  "instances": [{
//	    "name": "audio-server-1", "type": "audio-server",
//	    "outCapability": [{"name": "framerate", "value": {"kind": 3, "lo": 5, "hi": 60}}],
//	    "adjustable": {"framerate": true}, "resources": [64, 50], "sizeMB": 12,
//	    "installed": ["*"]
//	  }]
//	}
package spec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"ubiqos/internal/device"
	"ubiqos/internal/domain"
	"ubiqos/internal/netsim"
	"ubiqos/internal/registry"
	"ubiqos/internal/repository"
	"ubiqos/internal/resource"
)

// space is a smart-space configuration: the devices, links, and service
// instances of one domain.
type space struct {
	Name      string          `json:"name"`
	Devices   []spaceDevice   `json:"devices"`
	Links     []spaceLink     `json:"links,omitempty"`
	Uplinks   []spaceUplink   `json:"uplinks,omitempty"`
	Instances []spaceInstance `json:"instances,omitempty"`
}

// spaceDevice declares one device with its raw (un-normalized) capacity
// and its class by name, a key of deviceClasses.
type spaceDevice struct {
	ID     string            `json:"id"`
	Class  string            `json:"class"`
	Memory float64           `json:"memory"`
	CPU    float64           `json:"cpu"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// spaceLink declares a symmetric link between two devices. Either Preset
// names a key of linkPresets or BandwidthMbps/LatencyMs give explicit
// parameters.
type spaceLink struct {
	A             string  `json:"a"`
	B             string  `json:"b"`
	Preset        string  `json:"preset,omitempty"`
	BandwidthMbps float64 `json:"bandwidthMbps,omitempty"`
	LatencyMs     float64 `json:"latencyMs,omitempty"`
}

// spaceUplink connects a device to the domain server host (component
// downloads) over a preset link.
type spaceUplink struct {
	Device string `json:"device"`
	Preset string `json:"preset"`
}

// spaceInstance declares one service instance in the discovery catalog:
// the registry.Instance that qosctl register sends, plus the devices it
// is pre-installed on, where the special entry "*" installs it
// everywhere.
type spaceInstance struct {
	registry.Instance
	Installed []string `json:"installed,omitempty"`
}

// deviceClasses and linkPresets resolve the names a space document uses.
var (
	deviceClasses = map[string]device.Class{
		"desktop":     device.ClassDesktop,
		"laptop":      device.ClassLaptop,
		"pda":         device.ClassPDA,
		"workstation": device.ClassWorkstation,
		"gateway":     device.ClassGateway,
		"server":      device.ClassServer,
	}
	linkPresets = map[string]netsim.Link{
		"ethernet": netsim.Ethernet,
		"lan10":    netsim.LAN10,
		"wlan":     netsim.WLAN,
	}
)

// parseSpace decodes a space document, rejecting unknown fields and
// trailing data, and checks each declaration on its own; buildDomain
// checks how they refer to each other.
func parseSpace(data []byte) (*space, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp space
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("space: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("space: trailing data after the document")
	}
	if err := sp.check(); err != nil {
		return nil, err
	}
	return &sp, nil
}

// check holds each declaration to what buildDomain needs of it, naming
// the offending device, link, uplink or instance.
func (sp *space) check() error {
	if sp.Name == "" {
		return errors.New("space: name required")
	}
	for _, d := range sp.Devices {
		if d.Class == "" {
			return fmt.Errorf("device %q: class required", d.ID)
		}
		if _, ok := deviceClasses[d.Class]; !ok {
			return fmt.Errorf("device %q: unknown device class %q", d.ID, d.Class)
		}
		if d.Memory <= 0 || d.CPU <= 0 {
			return fmt.Errorf("device %q needs positive memory and cpu", d.ID)
		}
	}
	for _, l := range sp.Links {
		switch {
		case l.Preset == "" && l.BandwidthMbps <= 0:
			return fmt.Errorf("link %s-%s needs a preset or positive bandwidthMbps", l.A, l.B)
		case l.Preset != "" && (l.BandwidthMbps != 0 || l.LatencyMs != 0):
			return fmt.Errorf("link %s-%s takes a preset or bandwidthMbps/latencyMs, not both", l.A, l.B)
		case l.Preset != "" && !knownPreset(l.Preset):
			return fmt.Errorf("link %s-%s: unknown link preset %q", l.A, l.B, l.Preset)
		}
	}
	for _, u := range sp.Uplinks {
		if !knownPreset(u.Preset) {
			return fmt.Errorf("uplink %q: unknown link preset %q", u.Device, u.Preset)
		}
	}
	for i := range sp.Instances {
		if err := sp.Instances[i].Validate(); err != nil {
			return err
		}
	}
	return nil
}

func knownPreset(name string) bool {
	_, ok := linkPresets[name]
	return ok
}

// buildDomain constructs and wires the domain of a checked space.
func (sp *space) buildDomain(opts domain.Options) (*domain.Domain, error) {
	d, err := domain.New(sp.Name, opts)
	if err != nil {
		return nil, err
	}
	deviceIDs := make(map[string]bool, len(sp.Devices))
	for _, sd := range sp.Devices {
		if _, err := d.AddDevice(device.ID(sd.ID), deviceClasses[sd.Class], resource.MB(sd.Memory, sd.CPU), sd.Attrs); err != nil {
			return nil, fmt.Errorf("device %q: %w", sd.ID, err)
		}
		deviceIDs[sd.ID] = true
	}
	for _, sl := range sp.Links {
		if !deviceIDs[sl.A] || !deviceIDs[sl.B] {
			return nil, fmt.Errorf("link %s-%s references an undeclared device", sl.A, sl.B)
		}
		link := netsim.Link{BandwidthMbps: sl.BandwidthMbps, LatencyMs: sl.LatencyMs}
		if sl.Preset != "" {
			link = linkPresets[sl.Preset]
		}
		if err := d.Connect(device.ID(sl.A), device.ID(sl.B), link); err != nil {
			return nil, fmt.Errorf("link %s-%s: %w", sl.A, sl.B, err)
		}
	}
	for _, su := range sp.Uplinks {
		if !deviceIDs[su.Device] {
			return nil, fmt.Errorf("uplink references undeclared device %q", su.Device)
		}
		if err := d.ConnectServer(device.ID(su.Device), linkPresets[su.Preset]); err != nil {
			return nil, fmt.Errorf("uplink %q: %w", su.Device, err)
		}
	}
	for _, si := range sp.Instances {
		inst := si.Instance
		if err := d.Registry.Register(&inst); err != nil {
			return nil, fmt.Errorf("instance %q: %w", si.Name, err)
		}
		if si.SizeMB > 0 {
			if err := d.Repo.Publish(repository.Package{Name: si.Name, SizeMB: si.SizeMB}); err != nil {
				return nil, fmt.Errorf("instance %q: %w", si.Name, err)
			}
		}
		for _, target := range si.Installed {
			if target == "*" {
				for id := range deviceIDs {
					d.Repo.MarkInstalled(id, si.Name)
				}
				continue
			}
			if !deviceIDs[target] {
				return nil, fmt.Errorf("instance %q: installed references undeclared device %q", si.Name, target)
			}
			d.Repo.MarkInstalled(target, si.Name)
		}
	}
	return d, nil
}

// LoadSpace decodes a space document and builds its domain in one step.
func LoadSpace(data []byte, opts domain.Options) (*domain.Domain, error) {
	sp, err := parseSpace(data)
	if err != nil {
		return nil, err
	}
	return sp.buildDomain(opts)
}
