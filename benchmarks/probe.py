"""One traced stage in a fresh process, so its peak RSS is its own.

    python3 probe.py build CSV GRANULARITY [--max-workers N] [--approx]
                     [--save PATH]
    python3 probe.py load PATH

Prints one JSON object: the spans recorded around the layer calls, peak RSS
after each stage, and the counts the stage can see through public API.
Peak RSS of a forked build is that of its largest process, not the sum.
"""

from __future__ import annotations

import argparse
import json
import resource
from collections import Counter

from entity_pulse import corpus, index
from entity_pulse.timeline import Granularity

from spans import Tracer


def _peak_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024


def main() -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="stage", required=True)
    b = sub.add_parser("build")
    b.add_argument("csv")
    b.add_argument("granularity")
    b.add_argument("--max-workers", type=int)
    b.add_argument("--approx", action="store_true")
    b.add_argument("--save")
    ld = sub.add_parser("load")
    ld.add_argument("path")
    args = parser.parse_args()

    tracer = Tracer()
    out: dict = {}
    if args.stage == "build":
        with tracer.span("corpus.ingest"):
            corp, _ = corpus.ingest(args.csv)
        out["ingest_rss_mb"] = _peak_mb()
        out["records"] = len(corp)
        out["users"] = len(corp.users)
        out["entities"] = len(corp.entities)
        out["rejected"] = Counter(r.reason for r in corp.rejections)
        with tracer.span("index.build"):
            built = index.build(corp, Granularity.parse(args.granularity),
                                2.0, approx_users=args.approx,
                                max_workers=args.max_workers)
        out["build_rss_mb"] = _peak_mb()
        if args.save:
            with tracer.span("index.save"):
                index.save(built, args.save)
    else:
        with tracer.span("index.load"):
            index.load(args.path)
        out["load_rss_mb"] = _peak_mb()
    out["spans"] = tracer.spans
    print(json.dumps(out))


if __name__ == "__main__":
    main()
