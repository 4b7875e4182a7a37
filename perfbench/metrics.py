"""Names and units of the metrics the benchmark prints."""

import spans

END_TO_END = {
    "setup_s": "s", "protocol_s": "s", "eelm_fit_s": "s", "elm_fit_s": "s",
    "predict_rows_per_s": "rows/s", "peak_rss_mb": "MB",
    "eelm_test_error": "1", "elm_test_error": "1",
}


def per_layer_units() -> dict:
    """``<span>.self_s`` and ``<span>.calls`` for every span, the work
    counts, and the tracing overhead."""
    units = {}
    for span in spans.SPANS:
        units[f"{span}.self_s"] = "s/pass"
        units[f"{span}.calls"] = "count"
    for span, (work, _) in spans.WORK.items():
        units[f"{span}.{work}"] = "count"
    units["trace_overhead_s"] = "s/pass"
    return units
