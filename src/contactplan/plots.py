"""Self-contained SVG plots of a planned run.

Three figures: the workspace with the arm configurations per step, the
support-polygon area with the ZMP/FZMP traces, and the force/torque
magnitudes against the object-to-base distance.  The files are written with
fixed-precision formatting, so identical runs produce identical bytes.
"""

import os

import numpy as np


def _fmt(value: float) -> str:
    return f"{value:.4f}"


class _Canvas:
    """Minimal SVG builder mapping world coordinates to pixels (y up)."""

    def __init__(self, width, height, world_box):
        self.width = width
        self.height = height
        margin = 50.0  # pixels around the plotted area
        x0, y0, x1, y1 = world_box
        span_x = max(x1 - x0, 1e-9)
        span_y = max(y1 - y0, 1e-9)
        scale = min((width - 2 * margin) / span_x,
                    (height - 2 * margin) / span_y)
        self.scale = scale
        self.x0, self.y0 = x0, y0
        self.off_x = margin + 0.5 * ((width - 2 * margin) - scale * span_x)
        self.off_y = margin + 0.5 * ((height - 2 * margin) - scale * span_y)
        self.y1 = y1
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
            f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
            f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        ]

    def to_px(self, x: float, y: float) -> tuple[float, float]:
        return (self.off_x + (x - self.x0) * self.scale,
                self.off_y + (self.y1 - y) * self.scale)

    def polyline(self, points, color, width=1.5, close=False):
        px = " ".join(f"{_fmt(u)},{_fmt(v)}" for u, v in
                      (self.to_px(x, y) for x, y in points))
        tag = "polygon" if close else "polyline"
        self.parts.append(
            f'<{tag} points="{px}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"/>')

    def circle(self, center, radius_world, color):
        u, v = self.to_px(*center)
        self.parts.append(
            f'<circle cx="{_fmt(u)}" cy="{_fmt(v)}" '
            f'r="{_fmt(radius_world * self.scale)}" fill="none" '
            f'stroke="{color}" stroke-width="1.5"/>')

    def dot(self, point, color, r=3.0):
        u, v = self.to_px(*point)
        self.parts.append(
            f'<circle cx="{_fmt(u)}" cy="{_fmt(v)}" r="{r}" fill="{color}"/>')

    def cross(self, point, color, size=4.0):
        u, v = self.to_px(*point)
        self.parts.append(
            f'<path d="M {_fmt(u - size)} {_fmt(v - size)} L {_fmt(u + size)} '
            f'{_fmt(v + size)} M {_fmt(u - size)} {_fmt(v + size)} L '
            f'{_fmt(u + size)} {_fmt(v - size)}" stroke="{color}" '
            f'stroke-width="1.5"/>')

    def text(self, point_px, string, size=12, color="black", anchor="start"):
        u, v = point_px
        self.parts.append(
            f'<text x="{_fmt(u)}" y="{_fmt(v)}" font-size="{size}" '
            f'font-family="sans-serif" fill="{color}" '
            f'text-anchor="{anchor}">{string}</text>')

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _step_color(index: int, count: int) -> str:
    t = index / max(count - 1, 1)
    return f"rgb({round(255 * t)},40,{round(255 * (1 - t))})"


def write_path_plot(records, config, path: str) -> None:
    """Workspace top view: arm configurations, bar, ports, waypoints."""
    margin = 0.15
    xs = [p[0] for r in records for p in ([r.waypoint, r.object_position])]
    ys = [p[1] for r in records for p in ([r.waypoint, r.object_position])]
    box = (min(config.arm_bases[:, 0].min(), min(xs)) - config.bar_length / 2 - margin,
           min(0.0, min(ys)) - margin,
           max(config.arm_bases[:, 0].max(), max(xs)) + config.bar_length / 2 + margin,
           max(ys) + margin)
    canvas = _Canvas(720, 640, box)
    count = len(records)

    # Wall line with the two port openings.
    wall_y = config.port_edges[0][0][1]
    port_xs = sorted(float(p[0]) for arm in config.port_edges for p in arm)
    for x_start, x_end in ((box[0], port_xs[0]), (port_xs[1], port_xs[2]),
                           (port_xs[3], box[2])):
        canvas.polyline([(x_start, wall_y), (x_end, wall_y)], "#888888",
                        width=4.0)
    for arm_edges in config.port_edges:
        for edge in arm_edges:
            canvas.dot(tuple(edge), "#444444", r=3.5)

    for index, record in enumerate(records):
        color = _step_color(index, count)
        # A record read back from a CSV has no joint points: no arms.
        for arm_points in record.joint_points or ():
            canvas.polyline([tuple(p) for p in arm_points], color, width=2.0)
        half = config.bar_length / 2.0
        bar = [(record.object_position[0] - half, record.object_position[1]),
               (record.object_position[0] + half, record.object_position[1])]
        canvas.polyline(bar, color, width=3.0)
        canvas.cross(tuple(record.waypoint), color)
    for arm_index in range(2):
        canvas.dot(tuple(config.arm_bases[arm_index]), "black", r=4.0)
    canvas.text((canvas.width / 2, 28), "Planned configurations (first step "
                "blue, last step red)", size=14, anchor="middle")
    _write(path, canvas.render())


def write_zmp_plot(records, config, path: str) -> None:
    """Support-polygon area with the ZMP and FZMP traces."""
    poly = config.sp_polygon
    pts = np.vstack([poly, [r.zmp for r in records], [r.fzmp for r in records]])
    margin = 0.05
    box = (pts[:, 0].min() - margin, pts[:, 1].min() - margin,
           pts[:, 0].max() + margin, pts[:, 1].max() + margin)
    canvas = _Canvas(640, 640, box)
    canvas.polyline([tuple(v) for v in poly], "#555555", width=2.0, close=True)
    canvas.circle(tuple(config.sp_center), config.safe_radius, "#2a9d2a")
    canvas.dot(tuple(config.sp_center), "#2a9d2a", r=2.5)
    count = len(records)
    for index, record in enumerate(records):
        color = _step_color(index, count)
        canvas.dot(tuple(record.zmp), color, r=4.0)
        canvas.cross(tuple(record.fzmp), color, size=4.5)
    canvas.text((canvas.width / 2, 28), "ZMP (dots) and FZMP (crosses) per "
                "step; circle = safe region", size=14, anchor="middle")
    _write(path, canvas.render())


def write_force_torque_plot(records, path: str) -> None:
    """Support-force and torque magnitudes vs object-to-base distance."""
    dists = [r.distance for r in records]
    series = [("support force [N]", "#c0392b",
               [r.support_force_norm for r in records]),
              ("joint torque [Nm]", "#2266cc",
               [r.torque_norm for r in records])]
    x0, x1 = min(dists), max(dists)
    y1 = max(max(values) for _, _, values in series)
    y1 = y1 if y1 > 0 else 1.0
    box = (x0, 0.0, max(x1, x0 + 1e-6), y1 * 1.05)
    canvas = _Canvas(720, 480, box)
    canvas.polyline([(box[0], 0.0), (box[2], 0.0)], "black", width=1.0)
    canvas.polyline([(box[0], 0.0), (box[0], box[3])], "black", width=1.0)
    for tick in np.linspace(box[0], box[2], 5):
        u, v = canvas.to_px(tick, 0.0)
        canvas.text((u, v + 18), f"{tick:.2f}", size=10, anchor="middle")
    for tick in np.linspace(0.0, box[3], 5):
        u, v = canvas.to_px(box[0], tick)
        canvas.text((u - 8, v + 4), f"{tick:.0f}", size=10, anchor="end")
    for offset, (label, color, values) in enumerate(series):
        canvas.polyline(list(zip(dists, values)), color, width=2.0)
        for d, value in zip(dists, values):
            canvas.dot((d, value), color, r=2.5)
        canvas.text((canvas.width - 220, 30 + 18 * offset), label, size=12,
                    color=color)
    canvas.text((canvas.width / 2, canvas.height - 10),
                "object-to-base distance [m]", size=12, anchor="middle")
    _write(path, canvas.render())


def emit_plots(records, config, out_dir: str) -> list[str]:
    """Write the three SVG figures into ``out_dir``; returns the paths.

    Raises:
        ValueError: on an empty record list (nothing would be written).
    """
    records = list(records)
    if not records:
        raise ValueError("no records to plot")
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, name)
             for name in ("path.svg", "zmp.svg", "forces.svg")]
    write_path_plot(records, config, paths[0])
    write_zmp_plot(records, config, paths[1])
    write_force_torque_plot(records, paths[2])
    return paths


def _write(path: str, content: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)
