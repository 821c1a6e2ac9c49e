// Package repository implements the component repository of the domain
// server: service component packages are published with their sizes, and
// devices download them on demand over the emulated network. The dynamic
// downloading overhead — the dominant share of the configuration overhead
// in the paper's Figure 4 — is the modeled transfer time from the
// repository host to the target device, skipped entirely when the
// component is already installed.
package repository

import (
	"fmt"
	"sync"
	"time"

	"ubiqos/internal/netsim"
)

// Package is one downloadable component implementation.
type Package struct {
	// Name is the component instance name (matches registry.Instance.Name).
	Name string
	// SizeMB is the package size driving the download time.
	SizeMB float64
}

// Repository stores packages and tracks per-device installations. All
// methods are safe for concurrent use.
type Repository struct {
	// Host is the network endpoint the repository serves from (usually the
	// domain server's device).
	Host string

	net *netsim.Network

	mu        sync.Mutex
	packages  map[string]Package
	installed map[string]map[string]bool // device -> package -> installed
}

// New returns an empty repository served from host over the given network.
func New(host string, net *netsim.Network) (*Repository, error) {
	if host == "" {
		return nil, fmt.Errorf("repository: empty host")
	}
	if net == nil {
		return nil, fmt.Errorf("repository: nil network")
	}
	return &Repository{
		Host:      host,
		net:       net,
		packages:  make(map[string]Package),
		installed: make(map[string]map[string]bool),
	}, nil
}

// Publish adds or replaces a package.
func (r *Repository) Publish(p Package) error {
	if p.Name == "" {
		return fmt.Errorf("repository: package with empty name")
	}
	if p.SizeMB < 0 {
		return fmt.Errorf("repository: package %q with negative size", p.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.packages[p.Name] = p
	return nil
}

// MustPublish is Publish that panics on error.
func (r *Repository) MustPublish(p Package) {
	if err := r.Publish(p); err != nil {
		panic(err)
	}
}

// Has reports whether the named package is published.
func (r *Repository) Has(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.packages[name]
	return ok
}

// MarkInstalled records that the package is pre-installed on the device
// (the paper's audio-on-demand experiment assumes "the required service
// components are already installed on the target devices in advance").
func (r *Repository) MarkInstalled(device, name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.installed[device] == nil {
		r.installed[device] = make(map[string]bool)
	}
	r.installed[device][name] = true
}

// Installed reports whether the package is present on the device.
func (r *Repository) Installed(device, name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.installed[device][name]
}

// Ensure makes the named package available on the device, downloading it
// from the repository host when missing. It returns the modeled download
// duration (zero when already installed) — the "dynamic downloading"
// component of the configuration overhead.
func (r *Repository) Ensure(device, name string) (time.Duration, error) {
	r.mu.Lock()
	pkg, ok := r.packages[name]
	already := r.installed[device][name]
	r.mu.Unlock()
	if already {
		// Already on the device; no repository involvement needed.
		return 0, nil
	}
	if !ok {
		return 0, fmt.Errorf("repository: package %q not published", name)
	}
	d, err := r.net.Transfer(r.Host, device, pkg.SizeMB)
	if err != nil {
		return 0, fmt.Errorf("repository: download %q to %s: %w", name, device, err)
	}
	r.MarkInstalled(device, name)
	return d, nil
}
