"""Benchmark toolkit for camera illuminant estimation on color-chart scenes.

Modules:
    imagecore    raw uint16 counts: 16-bit PPM + sidecar I/O, black level,
                 clipping
    chartgeom    homography fitting, patch grid, patch sampling from the frame
    groundtruth  white-point extraction from the achromatic chart row
    estimators   statistical illuminant estimators (derivative order n,
                 Minkowski norm p, Gaussian smoothing sigma)
    metrics      recovery/reproduction angular errors, summaries, rankings
    audit        ground-truth set comparison and provenance checks
    synth        synthetic scene renderer used as a verification oracle
    cli          batch command-line front end
"""

__version__ = "0.1.0"
