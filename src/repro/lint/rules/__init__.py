"""Rule modules — importing this package registers every rule.

Rule id space:

* ``RFD000``      file does not parse (emitted by the engine itself)
* ``RFD1xx``      determinism (wall clocks, ambient RNG)
* ``RFD2xx``      dtype discipline on IQ paths
* ``RFD3xx``      concurrency safety & reliability
* ``RFD4xx``      API contracts (frozen config, metric names)
* ``RFD5xx``      typing hygiene
* ``RFD7xx``      whole-program concurrency & contracts
                  (:class:`~repro.lint.registry.ProjectRule` family,
                  run by ``rflint --project``)
"""

from repro.lint.rules import (  # noqa: F401  (imports register the rules)
    api_contracts,
    concurrency,
    concurrency_project,
    contracts_project,
    determinism,
    dtype,
    reliability,
    typing_hygiene,
)
