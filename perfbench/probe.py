"""Set-up probe: import and warm up as a benchmark run does, then print "ready".

run.py starts this script several times and times each from process start
to the "ready" line; the median is setup_s.
"""

import prepare

prepare.configure_process()  # before anything imports numpy

import workloads  # noqa: E402

if __name__ == "__main__":
    cli = prepare.import_cli()
    prepare.warm_up(cli, workloads.warm_up_ops(prepare.ROOT), prepare.OUT / "probe")
    print("ready", flush=True)
