package kernel

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// Device is an I/O device with exclusive kernel ownership, per the paper's
// first design principle: hardware is strictly divided among replicas and
// each device is owned by exactly one kernel (§3). Failover revokes the
// dead primary's ownership and re-loads the driver on the secondary — for
// the NIC this reload dominates the ~5 s failover time (§4.4).
type Device struct {
	name     string
	loadTime time.Duration
	owner    *Kernel
	loaded   bool
}

// NewDevice creates a device whose driver takes loadTime to initialize.
func NewDevice(name string, loadTime time.Duration) *Device {
	return &Device{name: name, loadTime: loadTime}
}

// Name returns the device name.
func (d *Device) Name() string { return d.name }

// Owner returns the kernel that owns the device, or nil.
func (d *Device) Owner() *Kernel { return d.owner }

// Loaded reports whether the owner's driver is operational: loaded, and its
// kernel alive — a dead owner's driver stopped with it.
func (d *Device) Loaded() bool { return d.loaded && d.owner.Alive() }

// Preload marks the device as owned and operational without spending load
// time — boot-time driver initialization that predates the measurement
// window. Failover reloads still pay the full load time.
func (d *Device) Preload(k *Kernel) { d.owner, d.loaded = k, true }

// LoadDriver acquires ownership of the device for the calling task's kernel
// and spends the driver load time. It fails if a *live* kernel other than
// the caller's owns the device: exclusive ownership can only be revoked
// from a dead replica (§3.7).
func (t *Task) LoadDriver(d *Device) error {
	k := t.kernel
	k.sim.Guard("LoadDriver")
	if d.owner != nil && d.owner != k {
		if d.owner.Alive() {
			return fmt.Errorf("kernel %q: device %q owned by live kernel %q", k.name, d.name, d.owner.name)
		}
		// Ownership transfer from a dead replica: the old driver state is
		// gone; the device is down until the reload completes.
		d.loaded = false
	}
	d.owner = k
	k.sc.EmitNote(obs.DriverLoad, 0, 0, int64(d.loadTime), d.name)
	t.Sleep(d.loadTime) // a kernel that dies meanwhile unwinds the task from here
	d.loaded = true
	k.sc.EmitNote(obs.DriverUp, 0, 0, 0, d.name)
	return nil
}
