//! The Vertex Stage's 3D transform path (§II.A): model/view/projection
//! matrices, near-plane culling, perspective divide and the viewport
//! transform that turns world-space geometry into the screen-space
//! triangles the binner consumes.
//!
//! The calibrated Table II workloads synthesize directly in screen space
//! (their statistics are what matters); this module exists for scenes
//! authored in 3D — see `examples/camera_orbit.rs`.

use crate::scene::{Scene, ScenePrimitive};
use tcor_common::Tri2;

/// A 3D point.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Vec3 {
    /// x component.
    pub x: f32,
    /// y component.
    pub y: f32,
    /// z component.
    pub z: f32,
}

impl Vec3 {
    /// Creates a vector.
    pub fn new(x: f32, y: f32, z: f32) -> Self {
        Vec3 { x, y, z }
    }

    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }

    fn cross(self, o: Vec3) -> Vec3 {
        Vec3::new(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )
    }

    fn dot(self, o: Vec3) -> f32 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    fn normalize(self) -> Vec3 {
        let len = self.dot(self).sqrt();
        if len == 0.0 {
            self
        } else {
            Vec3::new(self.x / len, self.y / len, self.z / len)
        }
    }
}

/// A world-space triangle with its attribute count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorldPrimitive {
    /// The three vertices.
    pub v: [Vec3; 3],
    /// Vertex attribute count (1..=15).
    pub attr_count: u8,
}

/// Column-major 4×4 matrix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mat4 {
    /// `m[col][row]`.
    pub m: [[f32; 4]; 4],
}

impl Mat4 {
    /// The identity matrix.
    pub fn identity() -> Self {
        let mut m = [[0.0; 4]; 4];
        for (i, col) in m.iter_mut().enumerate() {
            col[i] = 1.0;
        }
        Mat4 { m }
    }

    /// Matrix product `self * rhs` (apply `rhs` first).
    pub fn mul(&self, rhs: &Mat4) -> Mat4 {
        let mut out = [[0.0f32; 4]; 4];
        for (c, out_col) in out.iter_mut().enumerate() {
            for (r, out_cell) in out_col.iter_mut().enumerate() {
                *out_cell = (0..4).map(|k| self.m[k][r] * rhs.m[c][k]).sum();
            }
        }
        Mat4 { m: out }
    }

    /// Translation.
    pub fn translate(t: Vec3) -> Mat4 {
        let mut m = Mat4::identity();
        m.m[3][0] = t.x;
        m.m[3][1] = t.y;
        m.m[3][2] = t.z;
        m
    }

    /// Rotation about the Y axis by `angle` radians.
    #[cfg(test)]
    pub fn rotate_y(angle: f32) -> Mat4 {
        let (s, c) = angle.sin_cos();
        let mut m = Mat4::identity();
        m.m[0][0] = c;
        m.m[0][2] = -s;
        m.m[2][0] = s;
        m.m[2][2] = c;
        m
    }

    /// Right-handed perspective projection (OpenGL-style clip volume).
    ///
    /// # Panics
    ///
    /// Panics on non-positive `near`/`far` or degenerate aspect.
    pub fn perspective(fov_y_radians: f32, aspect: f32, near: f32, far: f32) -> Mat4 {
        assert!(near > 0.0 && far > near && aspect > 0.0);
        let f = 1.0 / (fov_y_radians / 2.0).tan();
        let mut m = Mat4 { m: [[0.0; 4]; 4] };
        m.m[0][0] = f / aspect;
        m.m[1][1] = f;
        m.m[2][2] = (far + near) / (near - far);
        m.m[2][3] = -1.0;
        m.m[3][2] = 2.0 * far * near / (near - far);
        m
    }

    /// Right-handed look-at view matrix.
    pub fn look_at(eye: Vec3, target: Vec3, up: Vec3) -> Mat4 {
        let f = target.sub(eye).normalize();
        let s = f.cross(up).normalize();
        let u = s.cross(f);
        let mut m = Mat4::identity();
        m.m[0][0] = s.x;
        m.m[1][0] = s.y;
        m.m[2][0] = s.z;
        m.m[0][1] = u.x;
        m.m[1][1] = u.y;
        m.m[2][1] = u.z;
        m.m[0][2] = -f.x;
        m.m[1][2] = -f.y;
        m.m[2][2] = -f.z;
        m.m[3][0] = -s.dot(eye);
        m.m[3][1] = -u.dot(eye);
        m.m[3][2] = f.dot(eye);
        m
    }

    /// Transforms a point, returning homogeneous `(x, y, z, w)`.
    pub fn transform(&self, p: Vec3) -> (f32, f32, f32, f32) {
        let col =
            |r: usize| self.m[0][r] * p.x + self.m[1][r] * p.y + self.m[2][r] * p.z + self.m[3][r];
        (col(0), col(1), col(2), col(3))
    }
}

/// Projects one world triangle through `mvp` into a `width`×`height`
/// screen. Returns `None` when any vertex lies behind the near plane
/// (conservative near culling — a full clipper would split the triangle)
/// or when the projected triangle misses the screen entirely.
pub fn project_triangle(tri: &[Vec3; 3], mvp: &Mat4, width: f32, height: f32) -> Option<Tri2> {
    let mut screen = [(0.0f32, 0.0f32); 3];
    for (i, v) in tri.iter().enumerate() {
        let (x, y, _z, w) = mvp.transform(*v);
        if w <= 1e-6 {
            return None; // behind the camera / on the near plane
        }
        let (ndc_x, ndc_y) = (x / w, y / w);
        screen[i] = (
            (ndc_x + 1.0) * 0.5 * width,
            (1.0 - ndc_y) * 0.5 * height, // screen Y grows downward
        );
    }
    let out = Tri2::new(screen[0], screen[1], screen[2]);
    out.bbox().clamp_to(width, height).map(|_| out)
}

/// Transforms a world-space scene into the screen-space [`Scene`] the
/// Tiling Engine bins: the Vertex Stage of Fig. 2.
pub fn transform_scene(prims: &[WorldPrimitive], mvp: &Mat4, width: f32, height: f32) -> Scene {
    prims
        .iter()
        .filter_map(|p| {
            project_triangle(&p.v, mvp, width, height).map(|tri| ScenePrimitive {
                tri,
                attr_count: p.attr_count,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_transform_is_identity() {
        let p = Vec3::new(1.0, 2.0, 3.0);
        let (x, y, z, w) = Mat4::identity().transform(p);
        assert_eq!((x, y, z, w), (1.0, 2.0, 3.0, 1.0));
    }

    #[test]
    fn translation_moves_points() {
        let m = Mat4::translate(Vec3::new(10.0, -5.0, 2.0));
        let (x, y, z, _) = m.transform(Vec3::new(1.0, 1.0, 1.0));
        assert_eq!((x, y, z), (11.0, -4.0, 3.0));
    }

    #[test]
    fn rotation_y_quarter_turn() {
        let m = Mat4::rotate_y(std::f32::consts::FRAC_PI_2);
        let (x, _, z, _) = m.transform(Vec3::new(1.0, 0.0, 0.0));
        assert!(x.abs() < 1e-6);
        assert!((z + 1.0).abs() < 1e-6, "x-axis rotates to -z, got z={z}");
    }

    #[test]
    fn matrix_mul_composes_right_to_left() {
        let t = Mat4::translate(Vec3::new(5.0, 0.0, 0.0));
        let r = Mat4::rotate_y(std::f32::consts::FRAC_PI_2);
        // (t * r): rotate first, then translate.
        let m = t.mul(&r);
        let (x, _, z, _) = m.transform(Vec3::new(1.0, 0.0, 0.0));
        assert!((x - 5.0).abs() < 1e-5);
        assert!((z + 1.0).abs() < 1e-5);
    }

    fn camera(width: f32, height: f32) -> Mat4 {
        let proj = Mat4::perspective(std::f32::consts::FRAC_PI_3, width / height, 0.1, 100.0);
        let view = Mat4::look_at(
            Vec3::new(0.0, 0.0, 5.0),
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
        );
        proj.mul(&view)
    }

    #[test]
    fn centered_point_projects_to_screen_center() {
        let (w, h) = (1960.0, 768.0);
        let mvp = camera(w, h);
        let tri = [
            Vec3::new(-0.01, -0.01, 0.0),
            Vec3::new(0.01, -0.01, 0.0),
            Vec3::new(0.0, 0.01, 0.0),
        ];
        let projected = project_triangle(&tri, &mvp, w, h).expect("visible");
        let bb = projected.bbox();
        let cx = (bb.x0 + bb.x1) / 2.0;
        let cy = (bb.y0 + bb.y1) / 2.0;
        assert!((cx - w / 2.0).abs() < 2.0, "center x {cx}");
        assert!((cy - h / 2.0).abs() < 2.0, "center y {cy}");
    }

    #[test]
    fn behind_camera_is_culled() {
        let (w, h) = (1960.0, 768.0);
        let mvp = camera(w, h);
        let tri = [
            Vec3::new(0.0, 0.0, 10.0), // camera is at z=5 looking at -z
            Vec3::new(1.0, 0.0, 10.0),
            Vec3::new(0.0, 1.0, 10.0),
        ];
        assert!(project_triangle(&tri, &mvp, w, h).is_none());
    }

    #[test]
    fn closer_triangles_project_larger() {
        let (w, h) = (1960.0, 768.0);
        let mvp = camera(w, h);
        let tri_at = |z: f32| {
            [
                Vec3::new(-0.5, -0.5, z),
                Vec3::new(0.5, -0.5, z),
                Vec3::new(0.0, 0.5, z),
            ]
        };
        let near = project_triangle(&tri_at(2.0), &mvp, w, h).unwrap();
        let far = project_triangle(&tri_at(-20.0), &mvp, w, h).unwrap();
        assert!(near.area() > 4.0 * far.area());
    }

    #[test]
    fn transform_scene_culls_and_converts() {
        let (w, h) = (1960.0, 768.0);
        let mvp = camera(w, h);
        let prims = vec![
            WorldPrimitive {
                v: [
                    Vec3::new(-0.5, -0.5, 0.0),
                    Vec3::new(0.5, -0.5, 0.0),
                    Vec3::new(0.0, 0.5, 0.0),
                ],
                attr_count: 3,
            },
            WorldPrimitive {
                v: [
                    Vec3::new(0.0, 0.0, 10.0),
                    Vec3::new(1.0, 0.0, 10.0),
                    Vec3::new(0.0, 1.0, 10.0),
                ],
                attr_count: 3,
            },
        ];
        let scene = transform_scene(&prims, &mvp, w, h);
        assert_eq!(scene.len(), 1, "behind-camera triangle culled");
    }
}
