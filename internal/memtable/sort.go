package memtable

// sort.go is the one way records are put in key order: an ordered Scan
// sorts what it gathered from the shards, and Table.Delta sorts the hot
// lists once per change into the view the query planner and the columnar
// compactor share.

// SortDedupePairs sorts the parallel (record, key) vectors by key in
// place and removes duplicate keys, nil-ing the freed record tail.
// keys[i] must equal recs[i].Key on entry; callers extract the keys while
// they gather so the sort never chases a record pointer, and the sorted
// key vector feeds their merge loops afterwards. tmpR and tmpK are
// caller-provided temporaries with len ≥ len(recs) for the radix passes
// (unused below the small-input cutoff). Allocation-free.
func SortDedupePairs(recs []*Record, keys []uint64, tmpR []*Record, tmpK []uint64) ([]*Record, []uint64) {
	if len(recs) < 64 {
		shellSortByKey(recs, keys)
	} else {
		radixSortByKey(recs, keys, tmpR, tmpK)
	}
	outR, outK := recs[:0], keys[:0]
	for i := range recs {
		if i == 0 || keys[i-1] != keys[i] {
			outR = append(outR, recs[i])
			outK = append(outK, keys[i])
		}
	}
	for j := len(outR); j < len(recs); j++ {
		recs[j] = nil
	}
	return outR, outK
}

// shellSortByKey is the small-input path: Knuth gaps, in place, and cheaper
// than the radix passes' fixed per-digit cost below a few dozen pairs.
func shellSortByKey(recs []*Record, keys []uint64) {
	gap := 1
	for gap < len(recs)/3 {
		gap = 3*gap + 1
	}
	for ; gap >= 1; gap /= 3 {
		for i := gap; i < len(recs); i++ {
			r, k := recs[i], keys[i]
			j := i
			for ; j >= gap && keys[j-gap] > k; j -= gap {
				recs[j], keys[j] = recs[j-gap], keys[j-gap]
			}
			recs[j], keys[j] = r, k
		}
	}
}

// radixSortByKey is an LSD byte radix sort over the significant key
// bytes: O(n) per pass, no comparisons, counts on the stack. Passes whose
// digit is constant across the input are skipped, so clustered key spaces
// pay only for the bytes that vary.
func radixSortByKey(recs []*Record, keys []uint64, tmpR []*Record, tmpK []uint64) {
	n := len(recs)
	var or uint64
	for _, k := range keys {
		or |= k
	}
	srcR, srcK := recs, keys
	dstR, dstK := tmpR[:n], tmpK[:n]
	for shift := uint(0); shift < 64 && or>>shift != 0; shift += 8 {
		var counts [256]int
		for _, k := range srcK {
			counts[(k>>shift)&0xff]++
		}
		if counts[(srcK[0]>>shift)&0xff] == n {
			continue // constant digit
		}
		sum := 0
		for i := range counts {
			c := counts[i]
			counts[i] = sum
			sum += c
		}
		for i, k := range srcK {
			d := (k >> shift) & 0xff
			p := counts[d]
			counts[d] = p + 1
			dstK[p] = k
			dstR[p] = srcR[i]
		}
		srcR, srcK, dstR, dstK = dstR, dstK, srcR, srcK
	}
	if &srcK[0] != &keys[0] {
		copy(keys, srcK)
		copy(recs, srcR)
	}
}
