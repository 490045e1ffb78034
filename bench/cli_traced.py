"""Runs ``repro-bench`` with spans around the public calls of each layer.

Usage: ``python3 bench/cli_traced.py OUT.json ARGS...`` runs
``repro-bench ARGS...`` in this process and writes the self time of each
layer (host CPU seconds), the store lookups and hits, and the import time to
``OUT.json``.  The wrappers are installed from here, around the public
functions and methods the CLI calls; the program itself is unchanged.
"""

import json
import sys
import time


class Spans:
    """Self time per layer: a span's duration minus its child spans."""

    def __init__(self) -> None:
        self.seconds = {}
        self.stack = []
        self.lookups = 0
        self.hits = 0

    def call(self, layer, fn, args, kwargs):
        start = time.process_time()
        self.stack.append(0.0)
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.process_time() - start
            children = self.stack.pop()
            self.seconds[layer] = (self.seconds.get(layer, 0.0)
                                   + elapsed - children)
            if self.stack:
                self.stack[-1] += elapsed

    def wrap(self, owner, attr, layer):
        is_classmethod = isinstance(vars(owner).get(attr), classmethod)
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            return self.call(layer, original, args, kwargs)

        setattr(owner, attr,
                staticmethod(wrapper) if is_classmethod else wrapper)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.process_time()
    import repro.analysis.report as report
    import repro.api.store as store
    import repro.api.sweep as sweep
    from repro.api import cli
    from repro.api.experiment import Experiment
    imported = time.process_time()

    spans = Spans()
    for owner, attr in ((sweep, "get_campaign"), (sweep.Campaign, "from_dict"),
                        (sweep.Campaign, "points"), (Experiment, "spec_hash")):
        spans.wrap(owner, attr, "api.expand_s")
    spans.wrap(store.ResultStore, "__init__", "store.open_s")
    spans.wrap(sweep.CampaignResult, "digest", "api.digest_s")
    for owner, attr in ((sweep.CampaignResult, "table"),
                        (sweep.CampaignResult, "slo_table"),
                        (report, "format_table"), (report, "latency_table"),
                        (report, "stalls_table")):
        spans.wrap(owner, attr, "analysis.report_s")
    get = store.ResultStore.get

    def counted_get(self, spec_hash):
        result = get(self, spec_hash)
        spans.lookups += 1
        spans.hits += result is not None
        return result

    store.ResultStore.get = counted_get
    spans.wrap(store.ResultStore, "get", "store.get_s")

    main_start = time.process_time()
    code = cli.main(argv)
    spans.seconds["cli.main_s"] = time.process_time() - main_start
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"seconds": spans.seconds, "lookups": spans.lookups,
                   "hits": spans.hits, "import_s": imported - start},
                  handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
