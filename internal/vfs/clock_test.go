package vfs

import (
	"bytes"
	"testing"

	"sleds/internal/cache"
	"sleds/internal/device"
)

// TestClockFaultKeepsDemandedPage: a 12-page ReadAt through a 32-page
// CLOCK cache whose every other page is referenced. The cluster's first
// insert evicts the one unreferenced page; the second sweeps every
// referenced page ahead of the just-inserted demanded page, which then
// sits unreferenced at the back. The demanded page is held until it is
// served, so the sweep takes the next candidate and the read returns the
// file's bytes.
func TestClockFaultKeepsDemandedPage(t *testing.T) {
	const cachePages = 32
	mem := device.NewMem(device.DefaultMemConfig(0))
	k := NewKernel(Config{PageSize: testPage, CachePages: cachePages, Policy: cache.Clock, MemDevice: mem})
	k.AttachDevice(mem)
	disk := k.AttachDevice(device.NewDisk(device.DefaultDiskConfig(1)))
	if err := k.MkdirAll("/data"); err != nil {
		t.Fatal(err)
	}
	mustCreateText(t, k, "/data/w", disk, 1, testPage)
	mustCreateText(t, k, "/data/hot", disk, 2, (cachePages-1)*testPage)
	cold := mustCreateText(t, k, "/data/cold", disk, 3, 12*testPage)
	fw, _ := k.Open("/data/w")
	fh, _ := k.Open("/data/hot")
	fc, _ := k.Open("/data/cold")

	// A full-page write goes in without a reference: the oldest frame.
	if _, err := fw.WriteAt(make([]byte, testPage), 0); err != nil {
		t.Fatal(err)
	}
	// Reading the rest of the cache references every other frame.
	if _, err := fh.ReadAt(make([]byte, (cachePages-1)*testPage), 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 12*testPage)
	n, err := fc.ReadAt(got, 0)
	if err != nil || n != len(got) {
		t.Fatalf("ReadAt = %d, %v; want %d bytes", n, err, len(got))
	}
	if want := cold.content.ReadAll(); !bytes.Equal(got, want) {
		t.Fatal("cold read returned bytes that differ from the file's content")
	}
	if k.Cache().Len() != cachePages {
		t.Fatalf("%d pages resident, want a full cache of %d", k.Cache().Len(), cachePages)
	}
}
