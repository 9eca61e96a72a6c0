"""Plain-text report formatting for experiment output."""


def format_cell(value, float_digits=3):
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.{float_digits}f}"
    return str(value)


def format_table(headers, rows, float_digits=3):
    """Render an aligned plain-text table."""
    text_rows = [[format_cell(v, float_digits) for v in row] for row in rows]
    headers = [str(h) for h in headers]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def normalize(values, baseline):
    """Each value divided by ``baseline``.

    A missing baseline (``None``) is a caller bug and raises; a
    *present-but-zero* baseline makes every ratio undefined and
    propagates as NaN.  The two used to be conflated into silent zeros,
    which rendered as "0.000x" — indistinguishable from a genuinely
    zero measurement in the figure tables.
    """
    if baseline is None:
        raise ValueError("normalize: baseline value is missing (None)")
    if baseline == 0:
        return [float("nan") for _ in values]
    return [v / baseline for v in values]


def speedup(baseline, value):
    """How much faster ``value`` is than ``baseline`` (x factor).

    ``speedup(0, 0)`` is 1.0 (two systems that both took zero time are
    equal, not infinitely faster); only a nonzero baseline against a
    zero value is a true infinity.
    """
    if not value:
        return 1.0 if not baseline else float("inf")
    return baseline / value


def _span_label(span, attr_width=48):
    """One line describing a span dict: name, wall time, metrics, attrs."""
    parts = [span["name"]]
    wall = span.get("wall_ms")
    if wall is not None:
        parts.append(f"wall={wall:.3f}ms")
    for key, value in span.get("metrics", {}).items():
        if isinstance(value, dict):
            inner = "/".join(f"{k}:{v}" for k, v in value.items())
            parts.append(f"{key}={inner}")
        elif isinstance(value, float):
            parts.append(f"{key}={value:.4g}")
        else:
            parts.append(f"{key}={value}")
    for key, value in span.get("attrs", {}).items():
        text = str(value)
        if len(text) > attr_width:
            text = text[: attr_width - 3] + "..."
        parts.append(f"{key}={text}")
    return "  ".join(parts)


def format_span_tree(span):
    """Render one exported span dict (see ``Span.to_dict``) as a tree::

        query  wall=1.234ms  cycles=5678  sql=SELECT ...
        +- plan  wall=0.021ms  plan=AggregatePlan
        \\- operator:AggregatePlan  wall=0.456ms
           \\- machine.run  wall=0.401ms  cycles=5678
              \\- controller.drain  ...
    """
    lines = []

    def walk(node, prefix, is_last, is_root):
        if is_root:
            lines.append(_span_label(node))
            child_prefix = ""
        else:
            branch = "\\- " if is_last else "+- "
            lines.append(prefix + branch + _span_label(node))
            child_prefix = prefix + ("   " if is_last else "|  ")
        children = node.get("children", [])
        for index, child in enumerate(children):
            walk(child, child_prefix, index == len(children) - 1, False)

    walk(span, "", True, True)
    return "\n".join(lines)


def format_metric_samples(samples):
    """A top-N metric table (``repro.obs`` Sample rows) as aligned text."""
    rows = [
        (
            s.name,
            ",".join(f"{k}={v}" for k, v in s.labels),
            s.value,
        )
        for s in samples
    ]
    return format_table(("metric", "labels", "value"), rows)


def geometric_mean(values):
    """Geometric mean over *all* values.

    The previous version silently dropped zero/negative values from
    both the product and the count, which inflated paper-figure
    geomeans whenever one system scored 0.  Now a zero propagates to a
    geomean of exactly 0.0, and negative values or an empty input raise
    (neither has a meaningful geometric mean).
    """
    values = list(values)
    if not values:
        raise ValueError("geometric mean of an empty sequence is undefined")
    product = 1.0
    for value in values:
        if value < 0:
            raise ValueError(
                f"geometric mean is undefined for negative value {value}"
            )
        product *= value
    if product == 0.0:
        return 0.0
    return product ** (1.0 / len(values))
