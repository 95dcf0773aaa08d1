"""Record the SHA-256 of every benchmark output into ``expected.json``.

Run from the root of a checkout after a change that is meant to alter the
program's output:

    python3 perfbench/record.py

An output is recorded only if it passes the independent checks.
"""
from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    digests = {}
    rejected = 0
    with tempfile.TemporaryDirectory(prefix="_work-", dir=run.HERE) as tmp:
        for workload in workloads.WORKLOADS:
            workdir = Path(tmp) / workload
            workdir.mkdir()
            cli = run.fresh_import()
            inputs = workloads.prepare(workload, run.ROOT, workdir)
            input_problems = run.check_inputs(inputs)
            checker = run.Checker(inputs, None)
            for op in inputs.ops:
                _, code, stdout, stderr = run.run_op(cli, op)
                problems = input_problems + checker.problems(op, code, stdout, stderr)
                if problems:
                    rejected += 1
                    print(f"{op.name}: {'; '.join(problems)}", file=sys.stderr)
                else:
                    digests[op.name] = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
    if rejected:
        print(f"{rejected} outputs failed their checks; nothing recorded", file=sys.stderr)
        return 1
    text = json.dumps(digests, indent=1, sort_keys=True) + "\n"
    (run.HERE / "expected.json").write_text(text, encoding="utf-8")
    print(f"recorded {len(digests)} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
