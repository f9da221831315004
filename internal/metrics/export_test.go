package metrics

// NumHistBuckets is the fixed histogram width.
func NumHistBuckets() int { return histBuckets }
