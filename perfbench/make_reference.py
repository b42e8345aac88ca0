"""Write reference.json: every workload's output summary at the default seed.

    python3 perfbench/make_reference.py

Benchmark runs at the default seed compare their outputs with these values
at a relative tolerance of 1e-8. Regenerate only when a change of results
is intended, and say so in the change that does it.
"""

import json

import run  # configures the process before numpy is imported
import prepare
import workloads

if __name__ == "__main__":
    cli = prepare.import_cli()
    reference = {}
    for name in workloads.WORKLOADS:
        outdir = prepare.OUT / "reference" / name
        summary = {}
        for op in workloads.make_ops(name, run.DEFAULT_SEED, prepare.ROOT):
            code, stdout = prepare.run_cli(cli, op.argv + ("--out", str(outdir / op.label)))
            if code != 0:
                raise SystemExit(f"error: {name}/{op.label} exited with {code}")
            summary.update(workloads.summarize(op.label, outdir / op.label, stdout))
        reference[name] = summary
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
