package metrics

import "unsafe"

// NumHistBuckets is the fixed histogram width.
func NumHistBuckets() int { return histBuckets }

// Compression reports the centroid budget in effect (0 until the first
// Add/Merge of a zero-value Digest).
func (d *Digest) Compression() float64 { return d.compression }

// Centroids compacts pending observations and reports the current centroid
// count — O(compression) by construction, never O(N).
func (d *Digest) Centroids() int {
	d.compact()
	return len(d.centroids)
}

// Footprint reports the sketch's current memory footprint in bytes (struct
// plus centroid/buffer backing arrays). It is the quantity the memory-guard
// tests pin: bounded by the compression, never by N.
func (d *Digest) Footprint() int {
	return int(unsafe.Sizeof(*d)) +
		int(unsafe.Sizeof(centroid{}))*(cap(d.centroids)+cap(d.buffer))
}
