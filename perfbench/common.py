"""Helpers shared by the workloads: building permutation actions, freezing
reports, and grading outcomes against oracle expectations."""

import json


def perm_action(hl, field, perms):
    """ActionData where basis element h acts by the permutation perms[h]."""
    return hl.ActionData.from_entries(
        field, len(perms), len(perms[0]),
        [(h, m, p[m], field.one) for h, p in enumerate(perms)
         for m in range(len(p))])


def report_json(report):
    """The report as a dict plus its JSON text, as a user would store it."""
    doc = report.to_dict()
    return doc, json.dumps(doc)


def report_docs(outcome):
    """The outcome's reports as dicts."""
    return [r if isinstance(r, dict) else r.to_dict()
            for r in outcome.get("reports", [])]


def law_entries(doc):
    """Every law entry (a dict with "law" and "pass") inside doc."""
    if isinstance(doc, list):
        for d in doc:
            yield from law_entries(d)
    elif isinstance(doc, dict):
        if "law" in doc and "pass" in doc:
            yield doc
        for v in doc.values():
            yield from law_entries(v)


def grade(expected, outcome):
    """Differences between an outcome and the oracle's expectations.

    An expectation of None makes no claim.  Every failing law must carry a
    witness.
    """
    if "raised" in outcome:
        return [f"raised {outcome['raised']}"]
    errors = [f"{k}: expected {v!r}, got {outcome['verdicts'].get(k)!r}"
              for k, v in expected.items()
              if v is not None and outcome["verdicts"].get(k) != v]
    gaps = sum(1 for law in law_entries(report_docs(outcome))
               if law["pass"] is False and not law.get("witness"))
    if gaps:
        errors.append(f"{gaps} failing laws without a witness")
    return errors + outcome.get("errors", [])
